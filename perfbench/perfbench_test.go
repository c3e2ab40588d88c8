package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"countnet"
)

var short = window{warm: 20 * time.Millisecond, dur: 200 * time.Millisecond, slices: 4}

func topology(t *testing.T) countnet.Topology {
	t.Helper()
	top, err := countnet.BitonicTopology(width)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// repeatCounter hands out the previous value again on every 1000th call.
type repeatCounter struct {
	c     *countnet.Counter
	calls atomic.Int64
	last  atomic.Int64
}

func (r *repeatCounter) Next() int64 {
	v := r.c.Next()
	if r.calls.Add(1)%1000 == 0 {
		return r.last.Load()
	}
	r.last.Store(v)
	return v
}

// swapFilter releases every pair of values out of turn, v+1 before v:
// still a gapless permutation, so only the lincheck check can catch it.
type swapFilter struct{ n atomic.Int64 }

func (f *swapFilter) Next() int64 { return (f.n.Add(1) - 1) ^ 1 }

// dropQueue loses the 100th item it is given.
type dropQueue struct {
	*countnet.Queue[int64]
	n int64 // touched by the single producer only
}

func (q *dropQueue) Enqueue(v int64) {
	if q.n++; q.n == 100 {
		return
	}
	q.Queue.Enqueue(v)
}

func failedFrac(r runResult) float64 { return float64(r.failed) / float64(r.attempted) }

// TestChecksCatchFaults shows the output checks have teeth: each faulty
// structure must raise failed_frac above zero.
func TestChecksCatchFaults(t *testing.T) {
	top := topology(t)
	t.Run("repeating counter", func(t *testing.T) {
		c, err := countnet.NewCounter(top)
		if err != nil {
			t.Fatal(err)
		}
		rc := &repeatCounter{c: c}
		r, err := runValues(valueTarget{draws: []drawFunc{rc.Next, rc.Next}, outputs: c.OutputCounts, maxRate: 32e6}, short)
		if err != nil {
			t.Fatal(err)
		}
		if failedFrac(r) <= 0 {
			t.Fatalf("repeated values not caught: %+v", r.notes)
		}
	})
	t.Run("out-of-turn filter", func(t *testing.T) {
		f := &swapFilter{}
		r, err := runValues(valueTarget{draws: []drawFunc{f.Next, f.Next}, strict: true, maxRate: 64e6}, short)
		if err != nil {
			t.Fatal(err)
		}
		if failedFrac(r) <= 0 || r.lin.NonLinearizable == 0 {
			t.Fatalf("out-of-turn releases not caught: %+v", r.notes)
		}
	})
	t.Run("dropping queue", func(t *testing.T) {
		q, err := countnet.NewQueue[int64](top, queueCap)
		if err != nil {
			t.Fatal(err)
		}
		r := runQueue(&dropQueue{Queue: q}, short, 1, nil)
		if failedFrac(r) <= 0 {
			t.Fatalf("dropped item not caught: %+v", r.notes)
		}
	})
}

// TestWorkloadsPass runs every workload briefly on the real structures.
func TestWorkloadsPass(t *testing.T) {
	for _, wl := range workloads {
		run, err := wl.setup()
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		r, err := run(short, 7)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", wl.name, r.failed, r.attempted, r.notes)
		}
	}
}

// TestResultMatchesBenchmarkJSON runs the command both ways and checks
// the last line carries exactly the metrics BENCHMARK.json declares.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "counter", "-seconds", "0.4", "-trace", []string{"0", "1"}[trace]}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %d: result %+v", trace, res)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("trace %d: metrics\n got %v\nwant %v", trace, got, exp)
		}
	}
}

// TestRefusesMoreCallersThanProcs: a two-caller workload must not run
// where GOMAXPROCS is 1.
func TestRefusesMoreCallersThanProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "counter", "-seconds", "0.1"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.record(v * 10)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.99, 9900}} {
		if got := h.quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("q%.2f = %.1f, want about %.0f", c.q, got, c.want)
		}
	}
}
