package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"countnet"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/topo"
)

// The traced run times the public calls into each layer from this
// package: a span around every call and, where the call offers a node
// hook, one span per hop. Spans of one call share its id. The layers' own
// code is not instrumented.

// layer names the boundary a span was recorded at.
type layer uint8

const (
	layerWalk layer = iota
	layerToggle
	layerCounter
	layerAdaptive
	layerAdaptiveEnter
	layerAdaptiveExit
	layerFilter
	layerEnqueue
	layerDequeue
)

var layerNames = [...]string{
	layerWalk:          "shm.network.walk",
	layerToggle:        "shm.balancer.toggle",
	layerCounter:       "shm.network.counter",
	layerAdaptive:      "shm.adaptive.next",
	layerAdaptiveEnter: "shm.adaptive.enter",
	layerAdaptiveExit:  "shm.adaptive.exit",
	layerFilter:        "shm.filter.next",
	layerEnqueue:       "shm.queue.enqueue",
	layerDequeue:       "shm.queue.dequeue",
}

// span is one timed interval; times are nanoseconds since the probe began.
type span struct {
	call  uint64 // caller<<40 | call number, shared by the call's hop spans
	layer layer
	depth int16 // network depth of a hop span, -1 for a call span
	start int64
	end   int64
}

// spanRing keeps a caller's most recent spans in preallocated memory.
type spanRing struct {
	buf []span
	n   uint64
}

// ringSpans is each caller's span capacity per probe.
const ringSpans = 1 << 13

func newSpanRing() *spanRing { return &spanRing{buf: make([]span, ringSpans)} }

func (r *spanRing) add(s span) {
	r.buf[r.n%uint64(len(r.buf))] = s
	r.n++
}

// kept returns the retained spans, oldest first.
func (r *spanRing) kept() []span {
	if r.n <= uint64(len(r.buf)) {
		return r.buf[:r.n]
	}
	i := r.n % uint64(len(r.buf))
	return append(append([]span(nil), r.buf[i:]...), r.buf[:i]...)
}

// maxHops bounds the hook timestamps kept per call.
const maxHops = 64

// hops collects one call's hook timestamps.
type hops struct {
	base time.Time
	t    [maxHops]int64
	k    int
}

func (h *hops) now() int64 { return int64(time.Since(h.base)) }

func (h *hops) mark() {
	if h.k < maxHops {
		h.t[h.k] = h.now()
	}
	h.k++
}

// walkTracer is one caller of the shm.network/shm.balancer probe.
type walkTracer struct {
	hops
	ctr     *countnet.Counter
	rng     *rand.Rand
	hook    func()
	ring    *spanRing
	id      uint64
	nodes   int64
	walk    hist
	counter hist
	depth   [maxHops]hist
	_       cacheLinePad
}

func (c *walkTracer) draw() int64 {
	in := c.rng.Intn(width)
	c.k = 0
	t0 := c.now()
	v, _ := c.ctr.NextInstrumented(in, c.hook) // in < width: never fails
	t1 := c.now()
	c.id++
	c.ring.add(span{call: c.id, layer: layerWalk, depth: -1, start: t0, end: t1})
	c.walk.record(t1 - t0)
	c.nodes += int64(c.k)
	prev := t0
	for d := 0; d < c.k && d < maxHops; d++ {
		ly := layerToggle
		if d == c.k-1 {
			ly = layerCounter
			c.counter.record(c.t[d] - prev)
		} else {
			c.depth[d].record(c.t[d] - prev)
		}
		c.ring.add(span{call: c.id, layer: ly, depth: int16(d), start: prev, end: c.t[d]})
		prev = c.t[d]
	}
	return v
}

// adaptiveTracer is one caller of the shm.adaptive probe.
type adaptiveTracer struct {
	hops
	ctr         *adaptive.Counter
	proc, tok   int32
	hook        func(topo.NodeID)
	ring        *spanRing
	id          uint64
	enter, exit hist
	_           cacheLinePad
}

func (c *adaptiveTracer) draw() int64 {
	c.k = 0
	t0 := c.now()
	v := c.ctr.Next(int(c.tok)%width, c.proc, c.tok, c.hook)
	t1 := c.now()
	c.tok++
	c.id++
	c.ring.add(span{call: c.id, layer: layerAdaptive, depth: -1, start: t0, end: t1})
	if c.k > 0 && c.k <= maxHops {
		first, last := c.t[0], c.t[c.k-1]
		c.ring.add(span{call: c.id, layer: layerAdaptiveEnter, depth: -1, start: t0, end: first})
		c.ring.add(span{call: c.id, layer: layerAdaptiveExit, depth: -1, start: last, end: t1})
		c.enter.record(first - t0)
		c.exit.record(t1 - last)
	}
	return v
}

// filterTracer is one caller of the shm.filter probe.
type filterTracer struct {
	hops
	f     *shm.Filter
	rng   *rand.Rand
	ring  *spanRing
	id    uint64
	next  hist
	ahead int64
	_     cacheLinePad
}

func (c *filterTracer) draw() int64 {
	in := c.rng.Intn(width)
	r := c.f.Returned()
	t0 := c.now()
	v := c.f.Traverse(in)
	t1 := c.now()
	c.id++
	c.ring.add(span{call: c.id, layer: layerFilter, depth: -1, start: t0, end: t1})
	c.next.record(t1 - t0)
	c.ahead += v - r
	return v
}

// suite is the traced run: one probe per layer family, each in the
// configuration of the workload whose calls cross that layer, so every
// traced run reports the whole per-layer table.
type suite struct {
	// probes holds each probe's run by name, for the tracing overhead of
	// the workload it mirrors.
	probes  map[string]runResult
	order   []string
	rings   map[string][]*spanRing
	metrics []metric
	// attempted and failed total the probes' own output checks.
	attempted, failed int64
	notes             []string
}

// depthMetrics is how many per-depth toggle metrics are reported: the
// depth of BitonicTopology(32).
const depthMetrics = 15

func (s *suite) add(r runResult, name string, rings ...*spanRing) {
	s.probes[name] = r
	s.order = append(s.order, name)
	s.rings[name] = rings
	s.attempted += r.attempted
	s.failed += r.failed
	for _, n := range r.notes {
		s.notes = append(s.notes, name+" probe: "+n)
	}
}

func (s *suite) put(name string, value float64, unit string, samples uint64) {
	s.metrics = append(s.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

// runSuite runs the four probes for w each, in a fixed order.
func runSuite(w window, seed int64) (*suite, error) {
	s := &suite{probes: map[string]runResult{}, rings: map[string][]*spanRing{}}
	t, err := countnet.BitonicTopology(width)
	if err != nil {
		return nil, err
	}
	if err := s.walkProbe(t, w, seed); err != nil {
		return nil, err
	}
	if err := s.adaptiveProbe(t, w); err != nil {
		return nil, err
	}
	if err := s.filterProbe(t, w, seed); err != nil {
		return nil, err
	}
	q, err := countnet.NewQueue[int64](t, queueCap)
	if err != nil {
		return nil, err
	}
	rings := [2]*spanRing{newSpanRing(), newSpanRing()}
	r := runQueue(q, w, seed, &rings)
	s.add(r, "queue", rings[0], rings[1])
	s.put("shm.queue.enqueue_ns_p50", r.enq.quantile(0.5), "ns", r.enq.n)
	s.put("shm.queue.enqueue_ns_p99", r.enq.quantile(0.99), "ns", r.enq.n)
	s.put("shm.queue.dequeue_ns_p50", r.deq.quantile(0.5), "ns", r.deq.n)
	s.put("shm.queue.dequeue_ns_p99", r.deq.quantile(0.99), "ns", r.deq.n)
	return s, nil
}

// walkProbe times Counter.NextInstrumented on seeded random inputs, two
// callers: the call span is the walk, each hop span one toggle and the
// last the output counter's fetch-add.
func (s *suite) walkProbe(t countnet.Topology, w window, seed int64) error {
	ctr, err := countnet.NewCounter(t)
	if err != nil {
		return err
	}
	base := time.Now()
	tr := make([]*walkTracer, 2)
	draws := make([]drawFunc, len(tr))
	for p := range tr {
		c := &walkTracer{
			hops: hops{base: base},
			ctr:  ctr,
			rng:  rand.New(rand.NewSource(seed ^ int64(mix(uint64(p))))),
			ring: newSpanRing(),
			id:   uint64(p) << 40,
		}
		c.hook = c.mark
		tr[p], draws[p] = c, c.draw
	}
	r, err := runValues(valueTarget{draws: draws, outputs: ctr.OutputCounts, maxRate: 4e6}, w)
	if err != nil {
		return err
	}
	s.add(r, "walk", tr[0].ring, tr[1].ring)
	var walk, counter, toggle hist
	var depth [depthMetrics]hist
	var nodes int64
	for _, c := range tr {
		walk.merge(&c.walk)
		counter.merge(&c.counter)
		nodes += c.nodes
		for d := range c.depth {
			toggle.merge(&c.depth[d])
			if d < depthMetrics {
				depth[d].merge(&c.depth[d])
			}
		}
	}
	s.put("shm.balancer.toggle_ns_p50", toggle.quantile(0.5), "ns", toggle.n)
	s.put("shm.balancer.toggle_ns_p99", toggle.quantile(0.99), "ns", toggle.n)
	for d := range depth {
		s.put(fmt.Sprintf("shm.balancer.toggle_ns_p50.d%02d", d), depth[d].quantile(0.5), "ns", depth[d].n)
	}
	s.put("shm.network.walk_ns_p50", walk.quantile(0.5), "ns", walk.n)
	s.put("shm.network.counter_ns_p50", counter.quantile(0.5), "ns", counter.n)
	s.put("shm.network.nodes_per_op", float64(nodes)/float64(max(walk.n, 1)), "count", walk.n)
	return nil
}

// adaptiveProbe times adaptive.Counter.Next through its node hook, one
// caller: enter is call to first hook (the epoch gate and census), exit
// is last hook to return (census release, sampling, controller).
func (s *suite) adaptiveProbe(t countnet.Topology, w window) error {
	net, err := shm.Compile(t.Graph(), shm.Options{})
	if err != nil {
		return err
	}
	ctr, err := adaptive.New(net, adaptive.Options{})
	if err != nil {
		return err
	}
	c := &adaptiveTracer{hops: hops{base: time.Now()}, ctr: ctr, ring: newSpanRing()}
	c.hook = func(topo.NodeID) { c.mark() }
	r, err := runValues(valueTarget{draws: []drawFunc{c.draw}, maxRate: 32e6}, w)
	if err != nil {
		return err
	}
	s.add(r, "adaptive", c.ring)
	s.put("shm.adaptive.enter_ns_p50", c.enter.quantile(0.5), "ns", c.enter.n)
	s.put("shm.adaptive.exit_ns_p50", c.exit.quantile(0.5), "ns", c.exit.n)
	st := ctr.Stats()
	share := func(m adaptive.Mode) float64 { return float64(st.PerMode[m]) / float64(max(st.Tokens, 1)) }
	n := uint64(st.Tokens)
	s.put("shm.adaptive.tokens_direct", share(adaptive.ModeDirect), "tokens/op", n)
	s.put("shm.adaptive.tokens_combine", share(adaptive.ModeCombine), "tokens/op", n)
	s.put("shm.adaptive.tokens_network", share(adaptive.ModeNetwork), "tokens/op", n)
	s.put("shm.adaptive.tokens_linear", share(adaptive.ModeLinear), "tokens/op", n)
	s.put("shm.adaptive.switches", float64(st.Switches), "count", n)
	return nil
}

// filterProbe times shm.Filter.Traverse on seeded random inputs, two
// callers: the configuration of countnet.LinearizableCounter. ahead is how far past the released count a call's value was
// when it started: the turns it had to wait for.
func (s *suite) filterProbe(t countnet.Topology, w window, seed int64) error {
	net, err := shm.Compile(t.Graph(), shm.Options{})
	if err != nil {
		return err
	}
	f := shm.NewFilter(net)
	base := time.Now()
	tr := make([]*filterTracer, 2)
	draws := make([]drawFunc, len(tr))
	for p := range tr {
		c := &filterTracer{
			hops: hops{base: base},
			f:    f,
			rng:  rand.New(rand.NewSource(seed ^ int64(mix(uint64(p)+2)))),
			ring: newSpanRing(),
			id:   uint64(p) << 40,
		}
		tr[p], draws[p] = c, c.draw
	}
	r, err := runValues(valueTarget{draws: draws, outputs: net.CounterCounts, strict: true, maxRate: 4e6}, w)
	if err != nil {
		return err
	}
	s.add(r, "filter", tr[0].ring, tr[1].ring)
	var next hist
	var ahead int64
	for _, c := range tr {
		next.merge(&c.next)
		ahead += c.ahead
	}
	s.put("shm.filter.next_ns_p50", next.quantile(0.5), "ns", next.n)
	s.put("shm.filter.next_ns_p99", next.quantile(0.99), "ns", next.n)
	s.put("shm.filter.ahead_mean", float64(ahead)/float64(max(next.n, 1)), "values", next.n)
	return nil
}

// writeSpans writes every probe's retained spans as tab-separated text.
func (s *suite) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "probe\tcall\tlayer\tdepth\tstart_ns\tend_ns")
	for _, name := range s.order {
		for _, r := range s.rings[name] {
			for _, sp := range r.kept() {
				fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%d\n", name, sp.call, layerNames[sp.layer], sp.depth, sp.start, sp.end)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
