// Package shm is the real shared-memory runtime for balancing networks:
// any topology compiled into a flat plan whose balancers are goroutine-safe
// toggle cells (atomic, mutex, or MCS-queue-lock toggles), walked directly
// by goroutines, and a stress driver with delay injection and real-time
// linearizability monitoring. It is the goroutines-as-processors
// counterpart of the cycle-level simulator in internal/sim.
//
// A walk enters at the input its caller names (Network.Traverse) or at the
// home input of the walk seat it draws from the network's pool
// (Network.Next); the pool's per-P slots keep callers on different Ps at
// different inputs with no shared word to pick them.
package shm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"countnet/internal/shm/mcs"
)

// Kind selects a toggle implementation.
type Kind int

// Toggle implementations.
const (
	// KindAtomic implements the toggle with a single atomic fetch-and-add.
	KindAtomic Kind = iota + 1
	// KindMutex protects the toggle with a sync.Mutex.
	KindMutex
	// KindMCS protects the toggle with an MCS queue lock, the paper's
	// balancer implementation.
	KindMCS
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAtomic:
		return "atomic"
	case KindMutex:
		return "mutex"
	case KindMCS:
		return "mcs"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// cell is one balancer on its own cache line: its toggle, guarded by the
// MCS lock or the mutex by Kind or drawn from KindAtomic's fetch-and-add
// ticket. A compiled network keeps its balancers in one []cell. The hot
// fields fill the first 40 of 64 bytes, so they keep a line of their own
// when Go starts the slice on a line or 8 bytes past one, after its malloc
// header (TestPlanMatchesSequential checks).
type cell struct {
	lock   mcs.Lock
	toggle int64 // guarded by lock or mu
	ticket atomic.Int64
	fanOut int64
	mu     sync.Mutex
	_      [24]byte
}

// lockedToggle advances the toggle in an MCS critical section entered
// with node, the paper's balancer.
func (c *cell) lockedToggle(node *mcs.Node) int64 {
	c.lock.Acquire(node)
	out := c.toggle
	if c.toggle++; c.toggle == c.fanOut {
		c.toggle = 0
	}
	c.lock.Release(node)
	return out
}

// fetchToggle advances the toggle with one fetch-and-add.
func (c *cell) fetchToggle() int64 {
	return (c.ticket.Add(1) - 1) % c.fanOut
}

// mutexToggle advances the toggle under the mutex, the textbook balancer.
func (c *cell) mutexToggle() int64 {
	//countnet:allow hotvet -- KindMutex is the deliberately blocking textbook toggle, kept as the measurement baseline
	c.mu.Lock()
	out := c.toggle
	if c.toggle++; c.toggle == c.fanOut {
		c.toggle = 0
	}
	c.mu.Unlock()
	return out
}
