package shm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/topo"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindAtomic: "atomic", KindMutex: "mutex", KindMCS: "mcs"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// oneBalancer are the toggle configurations TestBalancerStepProperty and
// BenchmarkBalancers run on a one-balancer network, keyed by the
// sub-benchmark names.
var oneBalancer = map[string]Options{
	"atomic": {Kind: KindAtomic},
	"mutex":  {Kind: KindMutex},
	"mcs":    {Kind: KindMCS},
}

// TestBalancerStepProperty hammers a one-balancer network of each toggle
// configuration and checks the values are gapless and the balancer's
// outputs satisfy the step property at quiescence.
func TestBalancerStepProperty(t *testing.T) {
	const goroutines = 8
	const iters = 2000
	g, err := dtree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range oneBalancer {
		n := compile(t, g, opts)
		seen := make([]atomic.Bool, goroutines*iters)
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					v := n.Traverse(0)
					if v < 0 || v >= int64(len(seen)) || seen[v].Swap(true) {
						t.Errorf("%s: value %d out of range or repeated", name, v)
						return
					}
				}
			}()
		}
		wg.Wait()
		if counts := n.CounterCounts(); !topo.StepPropertyHolds(counts) {
			t.Errorf("%s: port counts %v violate the step property", name, counts)
		}
	}
}

func compile(t *testing.T, g *topo.Graph, opts Options) *Network {
	t.Helper()
	n, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestNetworkCountsPermutation checks end-to-end counting correctness for
// every toggle kind and both network families under real concurrency.
func TestNetworkCountsPermutation(t *testing.T) {
	gb, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Network{
		"bitonic/atomic": compile(t, gb, Options{Kind: KindAtomic}),
		"bitonic/mutex":  compile(t, gb, Options{Kind: KindMutex}),
		"bitonic/mcs":    compile(t, gb, Options{Kind: KindMCS}),
		"dtree/mcs":      compile(t, gt, Options{Kind: KindMCS}),
		"dtree/mutex":    compile(t, gt, Options{Kind: KindMutex}),
	}
	for name, n := range cases {
		const workers = 8
		const perWorker = 400
		total := workers * perWorker
		got := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vals := make([]int64, 0, perWorker)
				in := w % n.InWidth()
				for i := 0; i < perWorker; i++ {
					vals = append(vals, n.Traverse(in))
				}
				got[w] = vals
			}(w)
		}
		wg.Wait()
		seen := make([]bool, total)
		for _, vals := range got {
			for _, v := range vals {
				if v < 0 || v >= int64(total) {
					t.Fatalf("%s: value %d out of range", name, v)
				}
				if seen[v] {
					t.Fatalf("%s: value %d duplicated", name, v)
				}
				seen[v] = true
			}
		}
		if !topo.StepPropertyHolds(n.CounterCounts()) {
			t.Errorf("%s: quiescent counter counts %v violate step property", name, n.CounterCounts())
		}
	}
}

// TestSingleWorkerValuesSequential checks the sequential guarantee through
// the real runtime: one goroutine alone must count 0, 1, 2, ...
//
// Note the deliberate contrast: with MULTIPLE goroutines, a worker's own
// successive values need NOT increase on a counting network — that is
// exactly the linearizability violation this paper studies (a goroutine
// preempted mid-traversal plays the role of a token with c2 >> c1), and
// real runs of this package do exhibit it. Only the c2 <= 2*c1 condition
// (or padding) restores the ordering, which wall-clock goroutine scheduling
// cannot promise.
func TestSingleWorkerValuesSequential(t *testing.T) {
	g, err := dtree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMutex})
	for k := 0; k < 500; k++ {
		if v := n.Traverse(0); v != int64(k) {
			t.Fatalf("sequential traversal %d returned %d", k, v)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(g, Options{Kind: Kind(99)}); err == nil {
		t.Error("unknown toggle kind accepted")
	}
	if _, err := Compile(g, Options{Kind: Kind(-1)}); err == nil {
		t.Error("negative toggle kind accepted")
	}
}

func TestStressBasic(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	res, err := Stress(StressConfig{Net: n, Workers: 8, Ops: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 2000 {
		t.Fatalf("recorded %d ops", len(res.Ops))
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %f", res.Throughput)
	}
	// Values must be exactly 0..1999.
	seen := make([]bool, 2000)
	for _, op := range res.Ops {
		if op.Value < 0 || op.Value >= 2000 || seen[op.Value] {
			t.Fatalf("bad value %d", op.Value)
		}
		seen[op.Value] = true
	}
}

func TestStressValidation(t *testing.T) {
	g, err := dtree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{})
	for _, cfg := range []StressConfig{
		{Net: nil, Workers: 1, Ops: 1},
		{Net: n, Workers: 0, Ops: 1},
		{Net: n, Workers: 1, Ops: 0},
		{Net: n, Workers: 1, Ops: 1, DelayedFrac: 2},
		{Net: n, Workers: 1, Ops: 1, Delay: -time.Second},
	} {
		if _, err := Stress(cfg); err == nil {
			t.Errorf("config accepted: %+v", cfg)
		}
	}
}

func TestStressWithInjectedDelays(t *testing.T) {
	g, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMutex})
	res, err := Stress(StressConfig{
		Net: n, Workers: 8, Ops: 1000,
		DelayedFrac: 0.25, Delay: 50 * time.Microsecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Violations may or may not occur (that is the paper's point); the
	// harness must still account for every operation.
	if res.Report.Total != 1000 {
		t.Fatalf("analyzed %d ops", res.Report.Total)
	}
}
