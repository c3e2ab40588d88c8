package adaptive

import (
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
)

// TestVoteTable pins the controller's regime ladder with the default
// DirectMax of 48: the direct counter escalates to the network at mean
// occupancy 48 and the network falls back below 24, and with a
// LinearBelow band of 64 a network vote becomes ModeLinear (entered below
// 32, kept below 64). The retired ModeCombine is never voted for.
func TestVoteTable(t *testing.T) {
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := shm.Compile(g, shm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		D = ModeDirect
		N = ModeNetwork
		L = ModeLinear
	)
	occs := []float64{0, 23, 24, 47, 48, 1e6}
	for _, tc := range []struct {
		linearBelow int
		mode        Mode
		want        [6]Mode // one per occs entry
	}{
		{0, D, [6]Mode{D, D, D, D, N, N}},
		{0, N, [6]Mode{D, D, N, N, N, N}},
		{0, L, [6]Mode{D, D, N, N, N, N}},
		{64, D, [6]Mode{D, D, D, D, N, N}},
		{64, N, [6]Mode{D, D, L, N, N, N}},
		{64, L, [6]Mode{D, D, L, L, L, N}},
	} {
		c, err := New(n, Options{LinearBelow: tc.linearBelow})
		if err != nil {
			t.Fatal(err)
		}
		for i, occ := range occs {
			got := c.vote(tc.mode, occ)
			if got == ModeCombine {
				t.Fatalf("LinearBelow %d, mode %v, occupancy %g: voted for the retired combine mode",
					tc.linearBelow, tc.mode, occ)
			}
			if got != tc.want[i] {
				t.Errorf("LinearBelow %d, mode %v, occupancy %g: vote %v, want %v",
					tc.linearBelow, tc.mode, occ, got, tc.want[i])
			}
		}
	}
}
