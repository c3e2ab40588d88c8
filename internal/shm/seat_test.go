package shm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/topo"
)

// TestSeatHomes checks where fresh seats enter: the first 2^j seats of a
// width-w network (2^j <= w) get distinct inputs, seats 0 and 1 of
// bitonic[32] enter in different Bitonic[16] halves, and every seat of
// every plan network, a three-input one included, gets a valid input.
func TestSeatHomes(t *testing.T) {
	nets := planNets(t)
	for _, w := range []int{4, 16} {
		g, err := bitonic.New(w)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("bitonic%d", w)] = g
	}
	b := topo.NewBuilder()
	b.Terminate(b.BalancerN(b.Inputs(3), 3))
	g3, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nets["balancer3x3"] = g3

	for name, g := range nets {
		w := g.InWidth()
		distinct := 1 // the largest power of two <= w; its prefixes follow
		for distinct*2 <= w {
			distinct *= 2
		}
		n := compile(t, g, Options{})
		seen := map[int]bool{}
		for k := 0; k < 4*w+3; k++ {
			home := n.newSeat().home
			if home < 0 || home >= w {
				t.Errorf("%s: seat %d got input %d, want [0,%d)", name, k, home, w)
			}
			if k < distinct && seen[home] {
				t.Errorf("%s: seat %d of the first %d repeats input %d", name, k, distinct, home)
			}
			seen[home] = true
		}
	}

	g := nets["bitonic32"]
	n := compile(t, g, Options{})
	h0, h1 := n.newSeat().home, n.newSeat().home
	if h0 >= 16 || h1 < 16 {
		t.Fatalf("bitonic32: seats 0 and 1 enter at %d and %d, want one per half", h0, h1)
	}
	// The first Depth(16) layers are the two Bitonic[16] halves, so the
	// toggles the two seats can reach there must not overlap.
	a, c := reach(g, h0, bitonic.Depth(16)), reach(g, h1, bitonic.Depth(16))
	for id := range a {
		if c[id] {
			t.Errorf("bitonic32: inputs %d and %d share balancer %d in the first %d layers", h0, h1, id, bitonic.Depth(16))
		}
	}
	if len(a) == 0 {
		t.Error("bitonic32: no balancer reached from seat 0's home")
	}
}

// reach returns the balancers within the first layers layers that a
// token entering at input can visit.
func reach(g *topo.Graph, input, layers int) map[topo.NodeID]bool {
	seen := map[topo.NodeID]bool{}
	var visit func(id topo.NodeID)
	visit = func(id topo.NodeID) {
		if seen[id] || g.KindOf(id) == topo.KindCounter || g.Layer(id) >= layers {
			return
		}
		seen[id] = true
		for p := 0; p < g.FanOut(id); p++ {
			visit(g.OutDest(id, p).Node)
		}
	}
	visit(g.Input(input).Node)
	return seen
}

// TestSeatReuse checks that walks hand their seat back to the pool: a
// lone caller's walks make a seat on the first call and then keep drawing
// it. The bound leaves room for race builds, whose sync.Pool drops a
// quarter of its Puts, and for a goroutine moving between Ps.
func TestSeatReuse(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 1000
	for name, opts := range planKinds {
		n := compile(t, g, opts)
		draws := calls // Next always draws a seat; Traverse only on MCS
		if opts.Kind == KindMCS {
			draws += calls
		}
		for i := 0; i < calls; i++ {
			n.Next()
			n.Traverse(i % n.InWidth())
		}
		if made := n.seats.Load(); made > int64(draws/2) {
			t.Errorf("%s: %d seat draws made %d seats; the pool is not handing them back", name, draws, made)
		}
	}
}

// TestNextSeatChurn runs Next from 2 and 8 goroutines for every toggle
// kind while forcing pairs of collections, the second of which drops the
// seats the first left in the pool, so fresh seats at new homes are made
// mid-run. The values must stay a gapless permutation, the output counts
// must satisfy the step property at quiescence, and a call on a fresh
// seat after quiescence must draw the next value.
func TestNextSeatChurn(t *testing.T) {
	g, err := bitonic.New(16)
	if err != nil {
		t.Fatal(err)
	}
	const perCaller, gcEvery = 600, 200
	for name, opts := range planKinds {
		for _, callers := range []int{2, 8} {
			n := compile(t, g, opts)
			seen := make([]atomic.Bool, callers*perCaller)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; i <= perCaller; i++ {
						v := n.Next()
						if v < 0 || v >= int64(len(seen)) || seen[v].Swap(true) {
							t.Errorf("%s/g%d: value %d out of range or repeated", name, callers, v)
							return
						}
						if i%gcEvery == 0 {
							runtime.GC()
							runtime.GC()
						}
					}
				}()
			}
			wg.Wait()
			if counts := n.CounterCounts(); !topo.StepPropertyHolds(counts) {
				t.Errorf("%s/g%d: port counts %v violate the step property", name, callers, counts)
			}
			made := n.seats.Load()
			runtime.GC()
			runtime.GC()
			if v := n.Next(); v != int64(len(seen)) {
				t.Errorf("%s/g%d: Next on a fresh seat after quiescence = %d, want %d", name, callers, v, len(seen))
			}
			if fresh := n.seats.Load() - made; fresh != 1 {
				t.Errorf("%s/g%d: the call after two collections made %d seats, want 1", name, callers, fresh)
			}
		}
	}
}
