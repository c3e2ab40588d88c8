package shm

import (
	"fmt"
	"time"

	"countnet/internal/obs"
	"countnet/internal/topo"
)

// netObs is the observability state attached to a compiled Network by
// EnableObs: tracer, clock, and the live metric family (the (Tog+W)/Tog
// estimator, toggle-wait histogram, per-balancer queue-depth gauges, and
// the output fetch-and-add counter).
type netObs struct {
	tr    obs.Tracer   // nil when tracing disabled
	clock func() int64 // nanoseconds on the run's monotonic timeline
	spans *obs.Clock   // causal span ids; non-nil exactly when tr is
	tog   *obs.Histogram
	ratio *obs.Ratio
	depth []*obs.Gauge // per-balancer concurrent-traverser count; nil entries for counters
	fai   *obs.Counter // output-counter fetch-and-adds
}

// Ratio returns the live (Tog+W)/Tog estimator, or nil when EnableObs has
// not been called with a registry.
func (n *Network) Ratio() *obs.Ratio {
	if n.obs == nil {
		return nil
	}
	return n.obs.ratio
}

// EnableObs attaches a tracer and/or metrics registry to the network.
// clock supplies timestamps in nanoseconds on a monotonic timeline shared
// with the caller's operation records (nil defaults to time-since-now).
// effW is the effective injected per-node delay in nanoseconds, the W of
// the live (Tog+W)/Tog gauge. Call before any traversal; not safe to call
// concurrently with Traverse.
func (n *Network) EnableObs(tr obs.Tracer, reg *obs.Registry, clock func() int64, effW float64) {
	if tr == nil && reg == nil {
		return
	}
	if clock == nil {
		base := time.Now()
		clock = func() int64 { return int64(time.Since(base)) }
	}
	o := &netObs{tr: tr, clock: clock}
	if tr != nil {
		o.spans = obs.NewClock()
	}
	if reg != nil {
		o.tog = reg.Histogram("shm_tog_wait_ns")
		o.ratio = reg.Ratio("shm_avg_c2c1", effW)
		o.fai = reg.Counter("shm_counter_fai_total")
		o.depth = make([]*obs.Gauge, len(n.steps))
		for _, id := range n.g.Balancers() {
			o.depth[id] = reg.Gauge(fmt.Sprintf("shm_bal%03d_depth", id))
		}
	}
	n.obs = o
}

// SpanClock returns the causal span clock tracing draws ids from, or nil
// when the network runs untraced. Drivers use it to stamp their own
// enter/exit events on the same timeline and chain them through
// TraverseSpan.
func (n *Network) SpanClock() *obs.Clock {
	if n.obs == nil {
		return nil
	}
	return n.obs.spans
}

// TraverseSpan routes one token like Traverse, running the same walk with
// a probe. afterNode, when non-nil, is called after every node transition
// (balancers and the final counter, in path order); the stress driver uses
// it to inject the paper's W-cycle delays. When EnableObs was called, every
// hop also records trace events and metrics under the identity (proc, tok),
// and each recorded hop gets a span id from the network's Clock, chained
// parent → child along the token's path starting from parent (0 for a
// root). It returns the counter value and the last span id (0 when tracing
// is off), which the caller chains its exit event — or the token's next
// traversal — onto.
func (n *Network) TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	if n.obs == nil && afterNode == nil {
		return n.walk(input, false, nil)
	}
	pr := probe{o: n.obs, hook: afterNode, proc: proc, tok: tok}
	if pr.o != nil && pr.o.tr != nil {
		pr.span = parent
	}
	return n.walk(input, false, &pr)
}

// probe is what a TraverseSpan walk does at each node besides routing
// the token: time and record the hop when o is set, then call hook.
type probe struct {
	o         *netObs // nil when EnableObs was not called
	hook      func(id topo.NodeID)
	proc, tok int32
	span      uint64 // last recorded span id
}

// enter starts a hop at node id and returns its start time.
//
//countnet:coldpath -- only TraverseSpan walks carry a probe
func (pr *probe) enter(id int32) int64 {
	o := pr.o
	if o == nil {
		return 0
	}
	if o.depth != nil && o.depth[id] != nil {
		o.depth[id].Add(1)
	}
	return o.clock()
}

// leave ends the hop at node id begun at t0 — a toggle when v is -1, else
// the counter draw of value v — and returns the token's last span id.
//
//countnet:coldpath -- only TraverseSpan walks carry a probe
func (pr *probe) leave(id int32, t0, v int64) uint64 {
	if o := pr.o; o != nil {
		t1 := o.clock()
		kind := obs.KindCounter
		if v < 0 {
			kind = obs.KindBalancer
			if o.depth != nil {
				o.depth[id].Add(-1)
			}
			if o.tog != nil {
				o.tog.Observe(t1 - t0)
				o.ratio.Observe(t1 - t0)
			}
		} else if o.fai != nil {
			o.fai.Inc()
		}
		if o.tr != nil {
			sp := o.spans.Tick()
			o.tr.Record(obs.Event{T: t1, Dur: t1 - t0, Kind: kind, P: pr.proc, Tok: pr.tok,
				Node: id, Value: v, Span: sp, Parent: pr.span})
			pr.span = sp
		}
	}
	if pr.hook != nil {
		pr.hook(topo.NodeID(id))
	}
	return pr.span
}
