package shm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"countnet/internal/shm/mcs"
	"countnet/internal/topo"
)

// Options configures network compilation.
type Options struct {
	// Kind selects the toggle implementation; default KindMCS (the
	// paper's).
	Kind Kind
}

// paddedCounter keeps per-output counters on separate cache lines.
type paddedCounter struct {
	v atomic.Int64
	_ [56]byte
}

// stepKind says how a plan step routes a token.
type stepKind uint8

const (
	stepCounter stepKind = iota // fetch-and-add on counters[at]; the walk ends
	stepCell                    // cells[at]'s atomic or MCS toggle, inline
	stepWait                    // cells[at]'s mutex toggle, which may park
)

// step is one node of the compiled plan, indexed by its topo.NodeID.
type step struct {
	at   int32 // index into counters or cells, by kind
	next int32 // offset of a balancer's successors in Network.next
	kind stepKind
}

// seat is what one walk holds: the MCS queue node it queues on at every
// toggle and the home input Next enters at. Seats live in the network's
// pool, whose per-P slots keep handing a P the seat it put back last, so
// callers running on different Ps keep entering at different inputs.
type seat struct {
	node mcs.Node
	home int
}

// Network is a balancing network compiled for direct traversal by
// goroutines: the paper's shared-memory counting network. It implements a
// w-width shared counter whose Traverse returns globally unique,
// step-property-consistent values.
//
// The compiled plan is flat: an entry table maps each input to its first
// step, and each step names its balancer cell (or output counter) and
// where its successors start in one next table, indexed by output port.
// Cells and output counters each sit on their own cache line.
type Network struct {
	g        *topo.Graph
	entry    []int32
	steps    []step
	next     []int32
	cells    []cell
	counters []paddedCounter
	w        int64
	kind     Kind
	obs      *netObs // nil until EnableObs; read-only afterwards
	_        [64]byte
	pool     sync.Pool    // of *seat; read by every walk, so on a line of its own
	seats    atomic.Int64 // seats made so far; written only on a pool miss
	_        [64]byte
}

// Compile builds the runtime for g.
func Compile(g *topo.Graph, opts Options) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("shm: nil graph")
	}
	if opts.Kind == 0 {
		opts.Kind = KindMCS
	}
	if opts.Kind < KindAtomic || opts.Kind > KindMCS {
		return nil, fmt.Errorf("shm: unknown balancer kind %d", int(opts.Kind))
	}
	n := &Network{
		g:        g,
		entry:    make([]int32, g.InWidth()),
		steps:    make([]step, g.NumNodes()),
		cells:    make([]cell, 0, g.NumBalancers()),
		counters: make([]paddedCounter, g.OutWidth()),
		w:        int64(g.OutWidth()),
		kind:     opts.Kind,
	}
	for i := range n.entry {
		n.entry[i] = int32(g.Input(i).Node)
	}
	for i := range n.steps {
		id, s := topo.NodeID(i), &n.steps[i]
		if g.KindOf(id) == topo.KindCounter {
			s.at = int32(g.CounterIndex(id))
			continue
		}
		fanOut := g.FanOut(id)
		s.next = int32(len(n.next))
		for p := 0; p < fanOut; p++ {
			n.next = append(n.next, int32(g.OutDest(id, p).Node))
		}
		s.kind, s.at = stepCell, int32(len(n.cells))
		n.cells = n.cells[:len(n.cells)+1]
		c := &n.cells[s.at]
		c.fanOut = int64(fanOut)
		if opts.Kind == KindMutex {
			s.kind = stepWait
		}
	}
	return n, nil
}

// Graph returns the compiled topology.
func (n *Network) Graph() *topo.Graph { return n.g }

// Kind returns the toggle implementation the network was compiled with.
func (n *Network) Kind() Kind { return n.kind }

// InWidth returns the number of network inputs.
func (n *Network) InWidth() int { return len(n.entry) }

// OutWidth returns the number of output counters.
func (n *Network) OutWidth() int { return int(n.w) }

// Traverse routes one token from the given input to a counter and returns
// its value. Safe for concurrent use by any number of goroutines.
//
//countnet:hotpath
func (n *Network) Traverse(input int) int64 {
	v, _ := n.walk(input, false, nil)
	return v
}

// Next routes one token from the home input of the seat its walk draws
// and returns its value. Concurrent callers on different Ps hold
// different seats, so they enter at different inputs with no shared word
// to pick them. Safe for concurrent use by any number of goroutines.
//
//countnet:hotpath
func (n *Network) Next() int64 {
	v, _ := n.walk(0, true, nil)
	return v
}

// walk is the one traversal loop: it routes a token from input, or from
// its seat's home when home is set, through the plan and returns the
// counter value and, when pr records spans, the last span id. A nil probe
// reads no clock and calls no hook.
//
// A token holds at most one toggle lock at a time and mcs.Node may be
// reused once Release returns, so the seat's one queue node serves the
// whole walk.
func (n *Network) walk(input int, home bool, pr *probe) (int64, uint64) {
	var ws *seat
	var node *mcs.Node
	if home || n.kind == KindMCS {
		ws = n.seat()
		if home {
			input = ws.home
		}
		if n.kind == KindMCS {
			node = &ws.node
		}
	}
	for id := n.entry[input]; ; {
		s := &n.steps[id]
		var t0 int64
		if pr != nil {
			t0 = pr.enter(id)
		}
		var out int64
		switch s.kind {
		case stepCell:
			if node != nil {
				out = n.cells[s.at].lockedToggle(node)
			} else {
				out = n.cells[s.at].fetchToggle()
			}
		case stepWait:
			out = n.cells[s.at].mutexToggle()
		default:
			v := int64(s.at) + n.w*(n.counters[s.at].v.Add(1)-1)
			if ws != nil {
				n.pool.Put(ws)
			}
			if pr == nil {
				return v, 0
			}
			return v, pr.leave(id, t0, v)
		}
		if pr != nil {
			pr.leave(id, t0, -1)
		}
		id = n.next[s.next+int32(out)]
	}
}

// seat draws a seat from the pool, making one on a miss.
func (n *Network) seat() *seat {
	if s, ok := n.pool.Get().(*seat); ok {
		return s
	}
	return n.newSeat()
}

// newSeat makes seat k, k counting the seats made so far. Its home is
// the bit-reversal of k read as a binary fraction (the van der Corput
// sequence) scaled to InWidth. On a width-2^b network that is k's low b
// bits reversed, so seats 0 and 1 enter in opposite halves: on
// bitonic[w], different Bitonic[w/2] sub-networks. On any width the first 2^j seats (2^j <= width) get distinct inputs. It
// runs on a pool miss only: a P's first walk, or one after GC dropped the
// seats.
func (n *Network) newSeat() *seat {
	k := uint64(n.seats.Add(1) - 1)
	home, _ := bits.Mul64(bits.Reverse64(k), uint64(len(n.entry)))
	//countnet:allow hotvet -- a pool miss allocates one seat; steady-state walks recycle seats through the pool
	return &seat{home: int(home)}
}

// CounterCounts returns the number of tokens that exited each output; in a
// quiescent state they must satisfy the step property.
func (n *Network) CounterCounts() []int64 {
	out := make([]int64, len(n.counters))
	for i := range n.counters {
		out[i] = n.counters[i].v.Load()
	}
	return out
}
