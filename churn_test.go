package countnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"countnet/internal/topo"
)

// churnCalls is each caller's call count in the seat churn tests, and
// churnGCEvery how often a caller forces a pair of collections: the
// second drops the walk seats the first left in the pool, so fresh seats
// at new home inputs are made mid-run.
const churnCalls, churnGCEvery = 600, 200

// churn runs body(caller, i) for i < churnCalls on callers goroutines,
// forcing collections as churnCalls describes, and returns when all are
// done.
func churn(callers int, body func(caller, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < churnCalls; i++ {
				body(c, i)
				if (i+1)%churnGCEvery == 0 {
					runtime.GC()
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
}

// TestSeatChurnCounter checks Counter.Next while seats are dropped and
// re-created: the values form a gapless permutation and the output counts
// satisfy the step property at quiescence.
func TestSeatChurnCounter(t *testing.T) {
	tp, err := BitonicTopology(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, callers := range []int{2, 8} {
		ctr, err := NewCounter(tp)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]atomic.Bool, callers*churnCalls)
		churn(callers, func(_, _ int) {
			if v := ctr.Next(); v < 0 || v >= int64(len(seen)) || seen[v].Swap(true) {
				t.Errorf("g%d: value %d out of range or repeated", callers, v)
			}
		})
		if counts := ctr.OutputCounts(); !topo.StepPropertyHolds(counts) {
			t.Errorf("g%d: output counts %v violate the step property", callers, counts)
		}
	}
}

// TestSeatChurnQueue checks Queue while seats are dropped and re-created,
// with half the callers producing and half consuming: every item is
// delivered exactly once, and with one producer and one consumer in
// exactly the order it was enqueued.
func TestSeatChurnQueue(t *testing.T) {
	tp, err := BitonicTopology(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, callers := range []int{2, 8} {
		q, err := NewQueue[int](tp, 64)
		if err != nil {
			t.Fatal(err)
		}
		producers := callers / 2
		seen := make([]atomic.Bool, producers*churnCalls)
		var fifo atomic.Int64 // the item the lone consumer expects next
		churn(callers, func(c, i int) {
			if c < producers {
				q.Enqueue(c*churnCalls + i)
				return
			}
			v := q.Dequeue()
			if v < 0 || v >= len(seen) || seen[v].Swap(true) {
				t.Errorf("g%d: item %d lost, duplicated or out of range", callers, v)
				return
			}
			if producers == 1 {
				if want := fifo.Add(1) - 1; int64(v) != want {
					t.Errorf("g%d: Dequeue = %d, want %d", callers, v, want)
				}
			}
		})
	}
}

// TestSeatChurnLinearizable checks LinearizableCounter.Next while seats
// are dropped and re-created: the values form a gapless permutation and
// come back in increasing real-time order.
func TestSeatChurnLinearizable(t *testing.T) {
	tp, err := BitonicTopology(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, callers := range []int{2, 8} {
		lc, err := NewLinearizableCounter(tp)
		if err != nil {
			t.Fatal(err)
		}
		mon := NewMonitor(callers * churnCalls)
		churn(callers, func(_, _ int) { mon.Observe(lc.Next) })
		if rep := mon.Report(); !rep.Linearizable() {
			t.Errorf("g%d: linearizable counter violated: %v", callers, rep)
		}
		seen := make([]bool, callers*churnCalls)
		for _, op := range mon.Ops() {
			if op.Value < 0 || op.Value >= int64(len(seen)) || seen[op.Value] {
				t.Fatalf("g%d: value %d out of range or repeated", callers, op.Value)
			}
			seen[op.Value] = true
		}
	}
}
