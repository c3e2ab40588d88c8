package mcs

import (
	"runtime"
	"sync"
	"testing"
)

// nodePool recycles Nodes across goroutines, as a compiled network's
// seat pool does.
func nodePool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(Node) }}
}

func TestMutualExclusion(t *testing.T) {
	var l Lock
	pool := nodePool()
	const goroutines = 16
	const iters = 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := pool.Get().(*Node)
				l.Acquire(n)
				counter++ // data race unless the lock works
				l.Release(n)
				pool.Put(n)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestNodeReuseAcrossLocks checks the reuse contract on Acquire: each
// goroutine queues on one Node for a walk through a chain of locks,
// holding one at a time, as a network traversal does. Every critical
// section bumps its lock's plain counter, so a broken hand-off shows up
// as a data race under -race or as a lost update in the totals.
func TestNodeReuseAcrossLocks(t *testing.T) {
	const goroutines = 8
	const locks = 16
	const walks = 500
	var chain [locks]struct {
		l     Lock
		count int
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := new(Node)
			for w := 0; w < walks; w++ {
				for i := range chain {
					chain[i].l.Acquire(n)
					chain[i].count++
					chain[i].l.Release(n)
				}
			}
		}()
	}
	wg.Wait()
	for i := range chain {
		if got := chain[i].count; got != goroutines*walks {
			t.Fatalf("lock %d counted %d, want %d", i, got, goroutines*walks)
		}
	}
}

// TestReleaseLeavesNodeClean checks the invariant Acquire relies on: a
// Node that is not queued has next == nil, on each of Release's three
// paths, and the successor, if any, is handed the lock.
func TestReleaseLeavesNodeClean(t *testing.T) {
	t.Run("uncontended", func(t *testing.T) {
		var l Lock
		a := new(Node)
		l.Acquire(a)
		l.Release(a)
		if a.next.Load() != nil || l.tail.Load() != nil {
			t.Fatalf("after Release: a.next = %p, tail = %p, want both nil", a.next.Load(), l.tail.Load())
		}
	})

	t.Run("handoff", func(t *testing.T) {
		var l Lock
		a, b := new(Node), new(Node)
		l.Acquire(a)
		acquired := make(chan struct{})
		go func() {
			l.Acquire(b)
			close(acquired)
		}()
		for a.next.Load() != b {
			runtime.Gosched()
		}
		l.Release(a)
		if got := a.next.Load(); got != nil {
			t.Fatalf("after hand-off Release: a.next = %p, want nil", got)
		}
		<-acquired
		l.Release(b)
		if b.next.Load() != nil || l.tail.Load() != nil {
			t.Fatalf("after last Release: b.next = %p, tail = %p, want both nil", b.next.Load(), l.tail.Load())
		}
	})

	// Release finds no successor linked but the tail moved on, so it
	// spins for the link. With one P the linking goroutine runs only
	// when Release yields from that spin.
	t.Run("slow", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var l Lock
		a, b := new(Node), new(Node)
		l.Acquire(a)
		b.locked.Store(true)
		if pred := l.tail.Swap(b); pred != a {
			t.Fatalf("tail was %p, want a = %p", pred, a)
		}
		releasing := make(chan struct{})
		go func() {
			<-releasing
			a.next.Store(b)
		}()
		close(releasing)
		l.Release(a)
		if got := a.next.Load(); got != nil {
			t.Fatalf("after slow-path Release: a.next = %p, want nil", got)
		}
		if b.locked.Load() {
			t.Fatal("successor still locked after Release")
		}
		l.Release(b)
		if l.tail.Load() != nil {
			t.Fatalf("after last Release: tail = %p, want nil", l.tail.Load())
		}
	})
}

func TestUncontendedSequence(t *testing.T) {
	var l Lock
	n := new(Node)
	for i := 0; i < 100; i++ {
		l.Acquire(n)
		l.Release(n)
	}
}

func BenchmarkMCSUncontended(b *testing.B) {
	var l Lock
	n := new(Node)
	for i := 0; i < b.N; i++ {
		l.Acquire(n)
		l.Release(n)
	}
}

func BenchmarkMCSContended(b *testing.B) {
	var l Lock
	pool := nodePool()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := pool.Get().(*Node)
			l.Acquire(n)
			l.Release(n)
			pool.Put(n)
		}
	})
}
