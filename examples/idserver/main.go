// idserver: concurrent unique-ID (timestamp) generation with an online
// linearizability monitor — the paper's motivating application and its
// "practically linearizable" message, live.
//
// A pool of handler goroutines serves ID requests from a shared queue,
// drawing IDs from a width-32 counting-tree counter with MCS toggles. The
// service is run twice: once calm, and once with a fraction F of the
// handlers pausing W after traversing every node of the network (think
// garbage collection, page faults, noisy neighbours — the paper's Section 5
// anomaly, verbatim).
// The monitor counts non-linearizable responses: requests that started
// after another finished, yet returned a smaller ID.
//
// The punchline mirrors the paper: even under heavy anomalies the violation
// rate is a fraction of a percent, while the padding that would *guarantee*
// linearizability for the measured timing ratio is absurdly deep — the
// "linear time cost ... may prove an unnecessary burden".
//
//	go run ./examples/idserver
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"countnet"
)

const (
	handlers = 32
	requests = 8000
	frac     = 0.25                   // F: fraction of stalling handlers
	stall    = 200 * time.Microsecond // W: pause after each node
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tree, err := countnet.TreeTopology(32)
	if err != nil {
		return err
	}
	fmt.Printf("ID server on a counting tree: %s\n", tree)
	fmt.Printf("%d handlers, %d requests\n\n", handlers, requests)

	calm, calmDur, err := serve(tree, 0)
	if err != nil {
		return err
	}
	fmt.Printf("calm run:                    %s\n", calm)

	noisy, noisyDur, err := serve(tree, stall)
	if err != nil {
		return err
	}
	fmt.Printf("F=%.0f%% stall W=%v per node: %s\n\n", 100*frac, stall, noisy)

	// What would guaranteed linearizability cost? Probe the uncontended
	// per-node time; the anomalous per-node time is roughly nodeTime + W.
	nodeTime := probeNodeTime(tree)
	tm := countnet.Timing{C1: int64(nodeTime), C2: int64(nodeTime + stall)}
	k := tm.K()
	fmt.Printf("measured ratio under anomalies: c2/c1 ≈ %.0f\n", tm.Ratio())
	fmt.Printf("padding for a guarantee (Corollary 3.12) would need %d pass-through\n",
		tree.Depth()*(k-2))
	fmt.Printf("balancers per input (depth %d -> %d) — the paper's point: trade the\n",
		tree.Depth(), tree.Depth()*(k-1))
	fmt.Printf("guarantee for speed when violations are this rare (%s vs %s elapsed).\n",
		noisyDur.Round(time.Millisecond), calmDur.Round(time.Millisecond))
	return nil
}

// probeNodeTime measures the fast uncontended per-node traversal time.
func probeNodeTime(t countnet.Topology) time.Duration {
	ctr, err := countnet.NewCounter(t)
	if err != nil {
		return time.Microsecond
	}
	const probes = 2000
	start := time.Now()
	for i := 0; i < probes; i++ {
		ctr.Next()
	}
	d := time.Since(start) / time.Duration(probes*(t.Depth()+1))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// serve runs the request pool against a counter built on t; stalling
// handlers pause w after every node when w > 0.
func serve(t countnet.Topology, w time.Duration) (countnet.Report, time.Duration, error) {
	ctr, err := countnet.NewCounter(t)
	if err != nil {
		return countnet.Report{}, 0, err
	}
	mon := countnet.NewMonitor(requests)
	queue := make(chan int, handlers)
	start := time.Now()
	var wg sync.WaitGroup
	for h := 0; h < handlers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			var pauseFn func()
			if w > 0 && h < int(frac*handlers) {
				pauseFn = func() { busyWait(w) }
			}
			for range queue {
				mon.Observe(func() int64 {
					id, err := ctr.NextInstrumented(0, pauseFn)
					if err != nil {
						panic(err) // impossible: input 0 always exists
					}
					return id
				})
			}
		}(h)
	}
	for r := 0; r < requests; r++ {
		queue <- r
	}
	close(queue)
	wg.Wait()
	return mon.Report(), time.Since(start), nil
}

// busyWait spins to keep microsecond precision (sleep granularity is too
// coarse for the stall we are modeling).
func busyWait(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
