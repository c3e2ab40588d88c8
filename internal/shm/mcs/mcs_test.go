package mcs

import (
	"sync"
	"testing"
)

func TestMutualExclusion(t *testing.T) {
	var l Lock
	var pool Pool
	const goroutines = 16
	const iters = 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := pool.Get()
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

func TestTryAcquire(t *testing.T) {
	var l Lock
	a, b := new(Node), new(Node)
	if !l.TryAcquire(a) {
		t.Fatal("TryAcquire on a free lock failed")
	}
	if l.TryAcquire(b) {
		t.Fatal("TryAcquire succeeded while held")
	}
	l.Release(a)
	if !l.TryAcquire(b) {
		t.Fatal("TryAcquire after Release failed")
	}
	l.Release(b)
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
	var pool Pool
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := pool.Get()
			l.Acquire(n)
			l.Release(n)
			pool.Put(n)
		}
	})
}
