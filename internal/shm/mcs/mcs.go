// Package mcs implements the queue lock of Mellor-Crummey and Scott
// ("Algorithms for Scalable Synchronization on Shared-Memory
// Multiprocessors"), the lock the paper uses to protect every balancer: each
// waiter spins on its own queue node, so admission is FIFO and the lock
// generates constant remote traffic per handoff.
package mcs

import (
	"runtime"
	"sync/atomic"
)

// Node is one waiter's queue cell. A Node that is not queued has
// next == nil: the zero Node starts that way and Release restores it. A
// Node may be reused after Release returns, so a goroutine can keep one
// (a compiled network pools them inside its walk seats).
type Node struct {
	next   atomic.Pointer[Node]
	locked atomic.Bool
	_      [40]byte // keep hot fields of different nodes on separate cache lines
}

// Lock is an MCS queue lock. The zero value is an unlocked lock.
type Lock struct {
	tail atomic.Pointer[Node]
}

// Acquire enters the critical section, spinning on n until the predecessor
// hands the lock over. n must not be in use by another Acquire. An
// uncontended Acquire is one atomic swap on the lock's tail.
//
// Once Release(n) has returned, no other goroutine touches n again and
// n.next is nil once more: the successor, if any, was handed the lock
// through its own node, and the lock's tail no longer names n. So a
// goroutine that holds at most one lock at a time may reuse a single
// Node across any number of locks, in any order; a compiled network's
// walk queues on one Node for every toggle it passes.
func (l *Lock) Acquire(n *Node) {
	pred := l.tail.Swap(n)
	if pred == nil {
		return
	}
	// The predecessor reaches n only through pred.next, so it cannot
	// clear locked before this store; only the waiter reads locked.
	n.locked.Store(true)
	pred.next.Store(n)
	for spins := 0; n.locked.Load(); spins++ {
		if spins%64 == 63 {
			//countnet:allow hotvet -- bounded courtesy yield while the predecessor hands over the MCS lock; pure spinning here starves oversubscribed runs
			runtime.Gosched()
		}
	}
}

// Release leaves the critical section entered with n, leaving n.next nil.
// An uncontended Release is one compare-and-swap on the lock's tail.
func (l *Lock) Release(n *Node) {
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			return
		}
		// A successor is linking itself in; wait for the pointer.
		for spins := 0; ; spins++ {
			if next = n.next.Load(); next != nil {
				break
			}
			if spins%64 == 63 {
				//countnet:allow hotvet -- bounded courtesy yield while the successor finishes linking itself into the queue
				runtime.Gosched()
			}
		}
	}
	n.next.Store(nil)
	next.locked.Store(false)
}
