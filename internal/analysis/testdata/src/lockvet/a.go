// Package lockvetdata seeds lock-discipline violations for lockvet:
// leaked critical sections and undeclared nested acquisition.
//
//countnet:lockorder T.outer < T.inner
package lockvetdata

import (
	"sync"

	"countnet/internal/shm/mcs"
)

type T struct {
	a, b         sync.Mutex
	outer, inner sync.Mutex
	n            int
}

func ByPointer(mu *sync.Mutex, c *int) {
	mu.Lock()
	*c++ // dereferencing a non-lock pointer is fine
	mu.Unlock()
}

func (t *T) EarlyReturnLeak(x int) int {
	t.a.Lock()
	if x < 0 {
		return -1 // want `return with T\.a held`
	}
	t.a.Unlock()
	return x
}

func (t *T) DeferIsSafe(x int) int {
	t.a.Lock()
	defer t.a.Unlock()
	if x < 0 {
		return -1
	}
	return x
}

func (t *T) UnlockBeforeReturn(x int) int {
	t.a.Lock()
	if x < 0 {
		t.a.Unlock()
		return -1
	}
	t.a.Unlock()
	return x
}

func (t *T) UndeclaredNesting() {
	t.a.Lock()
	t.b.Lock() // want `T\.b acquired while T\.a is held without a declared order`
	t.b.Unlock()
	t.a.Unlock()
}

func (t *T) DeclaredNesting() {
	t.outer.Lock()
	t.inner.Lock()
	t.inner.Unlock()
	t.outer.Unlock()
}

func (t *T) SelfDeadlock() {
	t.a.Lock()
	t.a.Lock() // want `T\.a acquired while already held`
	t.a.Unlock()
	t.a.Unlock()
}

func (t *T) NeverReleased() {
	t.a.Lock()
	t.n++
} // want `T\.a still held at function end`

type Q struct {
	lock mcs.Lock
	v    int
}

func (q *Q) MCSLeak(x int) int {
	var n mcs.Node
	q.lock.Acquire(&n)
	if x < 0 {
		return -1 // want `return with Q\.lock held`
	}
	q.lock.Release(&n)
	return q.v
}

func (q *Q) MCSBalanced() int {
	var n mcs.Node
	q.lock.Acquire(&n)
	v := q.v
	q.lock.Release(&n)
	return v
}

func (t *T) SuppressedLeak() {
	t.a.Lock()
	//countnet:allow lockvet -- handed to the caller, released in MustUnlock
}

func (t *T) MustUnlock() { t.a.Unlock() }
