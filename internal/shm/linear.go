package shm

import (
	"sync/atomic"

	"countnet/internal/shm/backoff"
)

// Filter makes a counting network linearizable by waiting, in the spirit of
// the Herlihy-Shavit-Waarts linearizable counting constructions the paper
// contrasts against: a token that received value v from the network holds
// its response until every smaller value has been returned, so responses
// leave in exactly the order 0, 1, 2, ... and the real-time order of
// non-overlapping operations always matches the values.
//
// The guarantee costs what the paper says guaranteed linearizability must
// cost: the waiting serializes responses, so throughput degrades toward a
// sequential bottleneck as concurrency and timing anomalies grow — the
// quantitative version of "low contention linearizable counting needs
// linear depth". See BenchmarkLinearizableFilter. The contention-adaptive
// engine (internal/shm/adaptive) runs one Filter per ModeLinear epoch, so
// both users share this one release path.
type Filter struct {
	net *Network
	_   [56]byte
	// turn is the next value allowed to return. Every release stores it,
	// so it sits on its own cache line, away from the read-mostly net.
	turn atomic.Int64
	_    [56]byte
}

// NewFilter wraps net with the waiting filter.
func NewFilter(net *Network) *Filter {
	return &Filter{net: net}
}

// Traverse draws a value and holds it until all smaller values have been
// returned.
func (f *Filter) Traverse(input int) int64 {
	return f.Release(f.net.Traverse(input))
}

// Release holds value v until every smaller value has been returned, then
// returns it and opens the gate for v+1. Values count from 0 for a fresh
// Filter; a caller that draws from a network already in use releases
// values relative to the network's count when the Filter was created. The
// wait runs the shared backoff ladder — spin, then yield, then sleep — so
// a long-blocked token stops burning its core (on a single-CPU host a raw
// spin would steal the quantum from the very token it is waiting on).
//
//countnet:hotpath
func (f *Filter) Release(v int64) int64 {
	if f.turn.Load() != v {
		var bo backoff.Backoff
		for f.turn.Load() != v {
			bo.Wait()
		}
	}
	f.turn.Store(v + 1)
	return v
}

// Returned reports how many values have been handed out so far.
func (f *Filter) Returned() int64 { return f.turn.Load() }
