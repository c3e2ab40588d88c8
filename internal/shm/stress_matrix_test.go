package shm

import (
	"fmt"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/lincheck"
	"countnet/internal/topo"
)

// width1Graph builds the degenerate width-1 network — one pass-through
// balancer feeding one counter — which the bitonic constructor rejects
// but the stress driver must still serve correctly.
func width1Graph(t *testing.T) *topo.Graph {
	t.Helper()
	b := topo.NewBuilder()
	ins := b.Inputs(1)
	out := b.Balancer11(ins[0])
	b.Terminate([]topo.Out{out})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPermutation asserts the run handed out exactly the values
// 0..ops-1 — the quiescent no-duplicates/no-gaps contract. On failure it
// pulls the first
// linearizability witness from the op history for a concrete schedule
// to stare at.
func checkPermutation(t *testing.T, ops []lincheck.Op, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, op := range ops {
		if op.Value < 0 || op.Value >= int64(n) || seen[op.Value] {
			if w, ok := lincheck.FirstWitness(ops); ok {
				t.Logf("first inversion witness: %s", w)
			}
			t.Fatalf("value %d duplicated or out of range [0,%d)", op.Value, n)
		}
		seen[op.Value] = true
	}
}

// TestStressMatrix runs the stress driver over a width × processor-count
// grid and checks that no cell duplicates or skips a counter value.
// Linearizability violations are allowed — with injected delays they are
// the paper's expected behaviour — but the permutation must be exact.
func TestStressMatrix(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		for _, procs := range []int{4, 32, 256} {
			t.Run(fmt.Sprintf("w%d/p%d", width, procs), func(t *testing.T) {
				var g *topo.Graph
				var err error
				if width == 1 {
					g = width1Graph(t)
				} else if g, err = bitonic.New(width); err != nil {
					t.Fatal(err)
				}
				n := compile(t, g, Options{Kind: KindMCS})
				ops := 4 * procs
				if ops < 256 {
					ops = 256
				}
				res, err := Stress(StressConfig{
					Net: n, Workers: procs, Ops: ops, Seed: int64(width*1000 + procs),
					DelayedFrac: 0.25, Delay: 20 * time.Microsecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkPermutation(t, res.Ops, ops)
				if res.Report.Total != ops {
					t.Fatalf("analyzed %d ops, ran %d", res.Report.Total, ops)
				}
			})
		}
	}
}

// TestStressBurnGapProperty is the adversarial property run: every
// worker delayed, with the delay burned as busy work that holds the
// processor, on more workers than CPUs. The values must still form an
// exact permutation.
func TestStressBurnGapProperty(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	const ops = 4096
	res, err := Stress(StressConfig{
		Net: n, Workers: 128, Ops: ops, Seed: 7,
		DelayedFrac: 1, Delay: 20 * time.Microsecond, BurnDelay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, res.Ops, ops)
	if res.Report.Total != ops {
		t.Fatalf("analyzed %d ops, ran %d", res.Report.Total, ops)
	}
}

// TestStressQuiescentLinearizable checks that with no injected delays
// and a single worker the stress run is fully linearizable: one token at
// a time leaves no room for the paper's timing anomaly.
func TestStressQuiescentLinearizable(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	res, err := Stress(StressConfig{Net: n, Workers: 1, Ops: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, res.Ops, 500)
	if !res.Report.Linearizable() {
		t.Fatalf("sequential run not linearizable: %s", res.Report)
	}
}
