package shm

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"countnet/internal/bitonic"
	"countnet/internal/core"
	"countnet/internal/dtree"
	"countnet/internal/periodic"
	"countnet/internal/topo"
)

// planNets are the topologies the compiled plan is checked on: both
// butterfly families, trees of fan-out 2, 3 and 4, and a Corollary 3.12
// padded network, whose one-output pass-through balancers the plan must
// route like any other.
func planNets(t *testing.T) map[string]*topo.Graph {
	t.Helper()
	nets := map[string]*topo.Graph{}
	add := func(name string, g *topo.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = g
	}
	for _, w := range []int{2, 8, 32} {
		g, err := bitonic.New(w)
		add(fmt.Sprintf("bitonic%d", w), g, err)
	}
	for _, w := range []int{8, 16} {
		g, err := periodic.New(w)
		add(fmt.Sprintf("periodic%d", w), g, err)
	}
	for _, a := range []int{2, 4} {
		g, err := dtree.NewArity(16, a)
		add(fmt.Sprintf("dtree16a%d", a), g, err)
	}
	g3, err := dtree.NewArity(9, 3)
	add("dtree9a3", g3, err)
	b8 := nets["bitonic8"]
	g, err := topo.Pad(b8, core.PaddingLength(b8.Depth(), 4))
	add("bitonic8pad4", g, err)
	return nets
}

// planKinds are the toggle configurations: the two inline cells (atomic,
// MCS) and the out-of-line mutex one.
var planKinds = map[string]Options{
	"atomic": {Kind: KindAtomic},
	"mutex":  {Kind: KindMutex},
	"mcs":    {Kind: KindMCS},
}

// TestPlanMatchesSequential checks the compiled plan against the
// reference executor: over 4×width tokens on rotating inputs, a lone
// goroutine's values equal topo.Sequential's, token for token. Odd tokens
// walk through TraverseSpan, whose hook must fire once per visited node,
// in the reference path's order, with the counter last.
func TestPlanMatchesSequential(t *testing.T) {
	if size := unsafe.Sizeof(cell{}); size != 64 {
		t.Fatalf("toggle cell is %d bytes, want one 64-byte line", size)
	}
	for name, g := range planNets(t) {
		for kname, opts := range planKinds {
			n := compile(t, g, opts)
			if i := sharedLine(n.cells); i >= 0 {
				t.Errorf("%s/%s: toggle cell %d shares a cache line with its neighbours", name, kname, i)
			}
			seq := topo.NewSequential(g)
			seq.Stepper().TrackPaths()
			for tok := 0; tok < 4*g.OutWidth(); tok++ {
				in := tok % g.InWidth()
				want, err := seq.Traverse(in)
				if err != nil {
					t.Fatal(err)
				}
				var got int64
				var path []topo.NodeID
				if tok%2 == 0 {
					got = n.Traverse(in)
				} else {
					got, _ = n.TraverseSpan(in, 0, int32(tok), 0, func(id topo.NodeID) { path = append(path, id) })
				}
				if got != want {
					t.Fatalf("%s/%s: token %d at input %d got %d, reference %d", name, kname, tok, in, got, want)
				}
				if tok%2 == 0 {
					continue
				}
				if ref := seq.Stepper().Path(tok); fmt.Sprint(path) != fmt.Sprint(ref) {
					t.Fatalf("%s/%s: token %d hooks %v, reference path %v", name, kname, tok, path, ref)
				}
				if g.KindOf(path[len(path)-1]) != topo.KindCounter {
					t.Fatalf("%s/%s: token %d last hook %d is not a counter", name, kname, tok, path[len(path)-1])
				}
			}
		}
	}
}

// sharedLine returns the first cell whose hot fields (lock through mu)
// do not sit on one 64-byte line of their own, or -1.
func sharedLine(cells []cell) int {
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / 64 }
	for i := range cells {
		first, last := line(unsafe.Pointer(&cells[i].lock)), line(unsafe.Pointer(&cells[i].mu))
		if first != last || i > 0 && line(unsafe.Pointer(&cells[i-1].mu)) == first {
			return i
		}
	}
	return -1
}

// TestPlanConcurrent checks the plan under real concurrency: 2 and 8
// goroutines draw a gapless permutation, and the output counts satisfy
// the step property at quiescence.
func TestPlanConcurrent(t *testing.T) {
	for name, g := range planNets(t) {
		for kname, opts := range planKinds {
			for _, workers := range []int{2, 8} {
				n := compile(t, g, opts)
				per := 4 * g.OutWidth()
				seen := make([]bool, workers*per)
				var mu sync.Mutex
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						vals := make([]int64, per)
						for i := range vals {
							vals[i] = n.Traverse((w + i) % g.InWidth())
						}
						mu.Lock()
						defer mu.Unlock()
						for _, v := range vals {
							if v < 0 || v >= int64(len(seen)) || seen[v] {
								t.Errorf("%s/%s/g%d: value %d out of range or repeated", name, kname, workers, v)
								return
							}
							seen[v] = true
						}
					}(w)
				}
				wg.Wait()
				if !topo.StepPropertyHolds(n.CounterCounts()) {
					t.Errorf("%s/%s/g%d: quiescent counts %v violate the step property", name, kname, workers, n.CounterCounts())
				}
			}
		}
	}
}
