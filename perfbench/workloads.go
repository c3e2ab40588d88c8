package main

import (
	"countnet"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
)

const (
	// width is the network width of every workload: the paper's
	// BitonicTopology(32), depth 15.
	width = 32
	// queueCap is the queue workload's capacity.
	queueCap = 1024
)

// runner runs one built instance for a window; seed feeds the inputs it
// generates.
type runner func(w window, seed int64) (runResult, error)

// workload is one closed-loop benchmark configuration.
type workload struct {
	name string
	// callers is the number of goroutines issuing calls.
	callers int
	params  string
	// probe names the traced-suite probe that mirrors the workload; the
	// tracing overhead is its p50 minus the workload's.
	probe string
	// setup builds a fresh instance; it is what setup_s times.
	setup func() (runner, error)
}

var workloads = []workload{
	{
		name:    "counter",
		callers: 2,
		params:  "countnet.Counter.Next on BitonicTopology(32), MCS toggles, 2 callers",
		probe:   "walk",
		setup: func() (runner, error) {
			t, err := countnet.BitonicTopology(width)
			if err != nil {
				return nil, err
			}
			c, err := countnet.NewCounter(t)
			if err != nil {
				return nil, err
			}
			return func(w window, _ int64) (runResult, error) {
				return runValues(valueTarget{
					draws:   []drawFunc{c.Next, c.Next},
					outputs: c.OutputCounts,
					maxRate: 4e6,
				}, w)
			}, nil
		},
	},
	{
		name:    "queue",
		callers: 2,
		params:  "countnet.Queue[int64] on BitonicTopology(32), capacity 1024, 1 producer + 1 consumer",
		probe:   "queue",
		setup: func() (runner, error) {
			t, err := countnet.BitonicTopology(width)
			if err != nil {
				return nil, err
			}
			q, err := countnet.NewQueue[int64](t, queueCap)
			if err != nil {
				return nil, err
			}
			return func(w window, seed int64) (runResult, error) {
				return runQueue(q, w, seed, nil), nil
			}, nil
		},
	},
	{
		name:    "adaptive",
		callers: 1,
		params:  "adaptive.Counter.Next with default Options over shm.Compile(BitonicTopology(32)), 1 caller",
		probe:   "adaptive",
		setup: func() (runner, error) {
			t, err := countnet.BitonicTopology(width)
			if err != nil {
				return nil, err
			}
			net, err := shm.Compile(t.Graph(), shm.Options{})
			if err != nil {
				return nil, err
			}
			c, err := adaptive.New(net, adaptive.Options{})
			if err != nil {
				return nil, err
			}
			return func(w window, _ int64) (runResult, error) {
				var tok int32
				next := func() int64 {
					v := c.Next(int(tok)%width, 0, tok, nil)
					tok++
					return v
				}
				return runValues(valueTarget{draws: []drawFunc{next}, maxRate: 32e6}, w)
			}, nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
