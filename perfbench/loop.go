package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"countnet/internal/lincheck"
	"countnet/internal/topo"
)

// window is one timed phase: a warm-up, then dur cut into equal slices.
// End-to-end figures are medians over slices, so a burst from another
// tenant of a shared host moves one slice, not the result.
type window struct {
	warm   time.Duration
	dur    time.Duration
	slices int
}

// sliceLen is the target slice length; a slice holds tens of thousands of
// calls on every workload, enough for its p99.
const sliceLen = 100 * time.Millisecond

func newWindow(warm, dur time.Duration) window {
	return window{warm: warm, dur: dur, slices: max(1, int((dur+sliceLen/2)/sliceLen))}
}

func (w window) slice() time.Duration { return w.dur / time.Duration(w.slices) }

// linWindow is how many operations per caller feed lincheck: the first
// ones after warm-up, which bounds the recorder's memory.
const linWindow = 1 << 18

// maxFailureNotes caps the failure descriptions kept for stderr.
const maxFailureNotes = 8

// runResult is what one closed-loop phase measured and checked.
type runResult struct {
	slices    []hist // all callers' latencies, per slice
	sliceDur  time.Duration
	attempted int64
	failed    int64
	notes     []string
	lin       lincheck.Report
	allocs    uint64 // heap allocations while the callers ran
	// enq and deq split a queue run's window latencies by operation.
	enq, deq hist
}

func (r *runResult) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// throughput, p50 and p99 are the per-slice medians.
func (r *runResult) throughput() float64 {
	xs := make([]float64, len(r.slices))
	for i := range r.slices {
		xs[i] = float64(r.slices[i].n) / r.sliceDur.Seconds()
	}
	return median(xs)
}

func (r *runResult) latency(q float64) float64 {
	xs := make([]float64, len(r.slices))
	for i := range r.slices {
		xs[i] = r.slices[i].quantile(q)
	}
	return median(xs)
}

func (r *runResult) windowOps() uint64 {
	var n uint64
	for i := range r.slices {
		n += r.slices[i].n
	}
	return n
}

// drawFunc is one closed-loop caller's call into a counter under test.
type drawFunc func() int64

// valueTarget is a counter under test.
type valueTarget struct {
	draws []drawFunc // one per caller
	// outputs returns the output counters for the step-property check;
	// nil when the structure does not expose them.
	outputs func() []int64
	// strict makes every lincheck violation a failure.
	strict bool
	// maxRate bounds calls per second, sizing the value bitmaps.
	maxRate float64
}

type valueCaller struct {
	draw   drawFunc
	slices []hist
	seen   []uint64 // bitmap of values this caller drew
	bad    int64    // negative values
	dups   int64    // values this caller drew twice
	lin    []lincheck.Op
	nlin   int
	ops    int64
	_      cacheLinePad
}

// cacheLinePad ends every per-caller struct, so the fields one caller
// writes on each call never share a cache line with another caller's:
// false sharing would add cross-core traffic the program does not have.
type cacheLinePad [64]byte

func (c *valueCaller) run(base time.Time, w window) {
	start, slice := w.warm, w.slice()
	end := start + slice*time.Duration(w.slices)
	for {
		t0 := time.Since(base)
		v := c.draw()
		t1 := time.Since(base)
		c.ops++
		c.note(v)
		if t0 >= start && c.nlin < len(c.lin) {
			c.lin[c.nlin] = lincheck.Op{Start: int64(t0), End: int64(t1), Value: v}
			c.nlin++
		}
		if t1 >= start {
			if t1 >= end {
				return
			}
			c.slices[(t1-start)/slice].record(int64(t1 - t0))
		}
	}
}

func (c *valueCaller) note(v int64) {
	if v < 0 {
		c.bad++
		return
	}
	i := v >> 6
	if i >= int64(len(c.seen)) {
		c.bad++ // past the bitmap; runValues tells this apart from a small bitmap
		return
	}
	m := uint64(1) << (v & 63)
	if c.seen[i]&m != 0 {
		c.dups++
		return
	}
	c.seen[i] |= m
}

// runValues drives every caller of t in a closed loop for w and checks
// the values: over all calls they must be a gapless permutation of
// 0..n-1, the output counters must satisfy the step property at
// quiescence, and, when t is strict, lincheck must find no violation.
func runValues(t valueTarget, w window) (runResult, error) {
	capValues := int64(t.maxRate*(w.warm+w.dur).Seconds()) + 1
	callers := make([]*valueCaller, len(t.draws))
	for i, d := range t.draws {
		callers[i] = &valueCaller{
			draw:   d,
			slices: make([]hist, w.slices),
			seen:   make([]uint64, capValues/64+1),
			lin:    make([]lincheck.Op, linWindow),
		}
	}
	res := runResult{sliceDur: w.slice()}
	res.allocs = closedLoop(len(callers), func(i int, base time.Time) { callers[i].run(base, w) })

	res.slices = make([]hist, w.slices)
	var total, bad, dups int64
	for _, c := range callers {
		total += c.ops
		bad += c.bad
		dups += c.dups
		for i := range c.slices {
			res.slices[i].merge(&c.slices[i])
		}
	}
	if total > capValues {
		return res, fmt.Errorf("%d calls overflow the value bitmap sized for %.0f calls/s", total, t.maxRate)
	}
	res.attempted = total
	var distinct, sum, top int64 = 0, 0, -1
	for i := range callers[0].seen {
		var or uint64
		for _, c := range callers {
			sum += int64(bits.OnesCount64(c.seen[i]))
			or |= c.seen[i]
		}
		distinct += int64(bits.OnesCount64(or))
		if or != 0 {
			top = int64(i)*64 + 63 - int64(bits.LeadingZeros64(or))
		}
	}
	res.fail(bad, "%d values outside 0..%d", bad, total-1)
	res.fail(dups+sum-distinct, "%d duplicate values", dups+sum-distinct)
	res.fail(top+1-distinct, "%d gaps below the largest value %d", top+1-distinct, top)
	if t.outputs != nil {
		if counts := t.outputs(); !topo.StepPropertyHolds(counts) {
			res.fail(1, "output counts %v violate the step property", counts)
		}
	}
	res.lin = lincheck.Analyze(linOps(callers))
	if t.strict {
		res.fail(int64(res.lin.NonLinearizable), "%d non-linearizable operations", res.lin.NonLinearizable)
	}
	return res, nil
}

// linOps merges the callers' lincheck windows into one complete history:
// every operation that started before the earliest point at which some
// caller's window filled.
func linOps(callers []*valueCaller) []lincheck.Op {
	cut := int64(1<<63 - 1)
	for _, c := range callers {
		if c.nlin == len(c.lin) && c.lin[c.nlin-1].Start < cut {
			cut = c.lin[c.nlin-1].Start
		}
	}
	var ops []lincheck.Op
	for _, c := range callers {
		for _, op := range c.lin[:c.nlin] {
			if op.Start <= cut {
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// closedLoop starts n callers, releases them together, waits for all of
// them and returns the heap allocations made meanwhile.
func closedLoop(n int, run func(i int, base time.Time)) uint64 {
	var wg sync.WaitGroup
	gate := make(chan struct{})
	var base time.Time
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			run(i, base)
		}(i)
	}
	var m0, m1 runtime.MemStats
	runtime.GC() // start from a clean heap so no collection lands in the window
	runtime.ReadMemStats(&m0)
	base = time.Now()
	close(gate)
	wg.Wait()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// fifo is a queue under test.
type fifo interface {
	Enqueue(int64)
	Dequeue() int64
}

// sentinel ends a queue run; item encodings are never negative.
const sentinel = -1

// queueItem encodes item k with a seed-derived check field, so a
// corrupted or misdelivered item is recognised and k recovered.
func queueItem(seed, k int64) int64 {
	return k<<16 | int64(mix(uint64(seed)^uint64(k))&0xffff)
}

// runQueue drives one producer and one consumer in closed loops for w.
// The producer enqueues items 0, 1, 2, ... then the sentinel; with one
// producer the consumer must receive every item exactly once and in that
// order. spans, when non-nil, records one span per call on each side.
func runQueue(q fifo, w window, seed int64, spans *[2]*spanRing) runResult {
	start, slice := w.warm, w.slice()
	end := start + slice*time.Duration(w.slices)
	var sides [2]struct {
		ops    int64
		slices []hist
		typed  hist
		_      cacheLinePad
	}
	for i := range sides {
		sides[i].slices = make([]hist, w.slices)
	}
	var produced, delivered, misordered, corrupt int64
	lin := make([]lincheck.Op, 0, linWindow)
	record := func(side int, t0, t1 time.Duration) {
		s := &sides[side]
		s.ops++
		if spans != nil {
			spans[side].add(span{call: uint64(side)<<40 | uint64(s.ops), layer: layerEnqueue + layer(side), depth: -1, start: int64(t0), end: int64(t1)})
		}
		if t1 >= start && t1 < end {
			s.slices[(t1-start)/slice].record(int64(t1 - t0))
			s.typed.record(int64(t1 - t0))
		}
	}
	allocs := closedLoop(2, func(side int, base time.Time) {
		if side == 0 {
			for k := int64(0); ; k++ {
				t0 := time.Since(base)
				q.Enqueue(queueItem(seed, k))
				t1 := time.Since(base)
				record(0, t0, t1)
				if t1 >= end {
					produced = k + 1
					q.Enqueue(sentinel)
					return
				}
			}
		}
		for {
			t0 := time.Since(base)
			v := q.Dequeue()
			t1 := time.Since(base)
			if v == sentinel {
				return
			}
			record(1, t0, t1)
			k := v >> 16
			switch {
			case v < 0 || v != queueItem(seed, k):
				corrupt++
				continue
			case k != delivered:
				misordered++
			}
			if k >= delivered {
				delivered = k + 1
			}
			if t0 >= start && len(lin) < cap(lin) {
				lin = append(lin, lincheck.Op{Start: int64(t0), End: int64(t1), Value: k})
			}
		}
	})
	res := runResult{sliceDur: slice, allocs: allocs, slices: make([]hist, w.slices)}
	for i := range res.slices {
		res.slices[i].merge(&sides[0].slices[i])
		res.slices[i].merge(&sides[1].slices[i])
	}
	res.enq, res.deq = sides[0].typed, sides[1].typed
	res.attempted = sides[0].ops + sides[1].ops
	res.fail(corrupt, "%d corrupted items", corrupt)
	res.fail(misordered, "%d items out of FIFO order or after a lost item", misordered)
	res.fail(produced-delivered, "%d items never delivered", produced-delivered)
	// With one consumer a lincheck violation is a misordered item, which
	// is already a failure; the report is kept for the per-layer table.
	res.lin = lincheck.Analyze(lin)
	return res
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
