package queue

import (
	"sync"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
	"countnet/internal/topo"
)

func build(t *testing.T, capacity int) *Queue[int] {
	t.Helper()
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[int](g, capacity, shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewValidation(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New[int](g, 0, shm.Options{}); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New[int](nil, 4, shm.Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestSequentialFIFO(t *testing.T) {
	q := build(t, 16)
	if q.Cap() != 16 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 10; i++ {
		if v := q.Dequeue(); v != i {
			t.Fatalf("Dequeue = %d, want %d", v, i)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := build(t, 4)
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			q.Enqueue(round*4 + i)
		}
		for i := 0; i < 4; i++ {
			if v := q.Dequeue(); v != round*4+i {
				t.Fatalf("round %d: Dequeue = %d, want %d", round, v, round*4+i)
			}
		}
	}
}

// TestMPMCExactlyOnce hammers the queue with concurrent producers and
// consumers and checks the fundamental guarantee: every enqueued item is
// dequeued exactly once.
func TestMPMCExactlyOnce(t *testing.T) {
	q := build(t, 64)
	const producers = 8
	const consumers = 8
	const perProducer = 2000
	total := producers * perProducer
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(p*perProducer + i)
			}
		}(p)
	}
	got := make([][]int, consumers)
	perConsumer := total / consumers
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			vals := make([]int, 0, perConsumer)
			for i := 0; i < perConsumer; i++ {
				vals = append(vals, q.Dequeue())
			}
			got[c] = vals
		}(c)
	}
	wg.Wait()
	seen := make([]bool, total)
	for _, vals := range got {
		for _, v := range vals {
			if v < 0 || v >= total || seen[v] {
				t.Fatalf("lost or duplicated item %d", v)
			}
			seen[v] = true
		}
	}
}

// TestBlockingEmptyAndFull checks both blocking directions.
func TestBlockingEmptyAndFull(t *testing.T) {
	q := build(t, 2)
	done := make(chan int, 1)
	go func() { done <- q.Dequeue() }()
	// The consumer must block until something arrives.
	time.Sleep(20 * time.Millisecond)
	select {
	case v := <-done:
		t.Fatalf("Dequeue returned %d from an empty queue", v)
	default:
	}
	q.Enqueue(42)
	if v := <-done; v != 42 {
		t.Fatalf("Dequeue = %d", v)
	}

	q.Enqueue(1)
	q.Enqueue(2)
	enqDone := make(chan struct{})
	go func() {
		q.Enqueue(3) // full: must block until a slot frees
		close(enqDone)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-enqDone:
		t.Fatal("Enqueue returned on a full queue")
	default:
	}
	if v := q.Dequeue(); v != 1 {
		t.Fatalf("Dequeue = %d, want 1", v)
	}
	<-enqDone
	if v := q.Dequeue(); v != 2 {
		t.Fatalf("Dequeue = %d, want 2", v)
	}
	if v := q.Dequeue(); v != 3 {
		t.Fatalf("Dequeue = %d, want 3", v)
	}
}

func TestWorksOnTreeTickets(t *testing.T) {
	// Tree-based tickets on out-of-line mutex toggles: same guarantees.
	b := topo.NewBuilder()
	in := b.Inputs(1)
	o0, o1 := b.Balancer12(in[0])
	o00, o01 := b.Balancer12(o0)
	o10, o11 := b.Balancer12(o1)
	b.Terminate([]topo.Out{o00, o10, o01, o11})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[string](g, 8, shm.Options{Kind: shm.KindMutex})
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue("a")
	q.Enqueue("b")
	if v := q.Dequeue(); v != "a" {
		t.Fatalf("Dequeue = %q", v)
	}
	if v := q.Dequeue(); v != "b" {
		t.Fatalf("Dequeue = %q", v)
	}
}

func BenchmarkQueueEnqDeqPairs(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	q, err := New[int](g, 1024, shm.Options{Kind: shm.KindMCS})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
			q.Dequeue()
		}
	})
}
