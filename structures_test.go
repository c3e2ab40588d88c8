package countnet

import (
	"sync"
	"testing"
)

func TestQueueEndToEnd(t *testing.T) {
	tp, err := BitonicTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue[int](tp, 32)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 32 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	const producers = 4
	const perProducer = 1000
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
	seen := make([]bool, total)
	var mu sync.Mutex
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := q.Dequeue()
				mu.Lock()
				if v < 0 || v >= total || seen[v] {
					t.Errorf("lost or duplicated %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestQueueValidation(t *testing.T) {
	if _, err := NewQueue[int](Topology{}, 4); err == nil {
		t.Error("zero topology accepted")
	}
	tp, err := TreeTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueue[int](tp, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewQueue[int](tp, 4, WithBalancer(BalancerImpl(42))); err == nil {
		t.Error("bad balancer impl accepted")
	}
}

func TestTreeTopologyArity(t *testing.T) {
	tp, err := TreeTopologyArity(27, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Depth() != 3 || tp.Width() != 27 {
		t.Fatalf("depth=%d width=%d", tp.Depth(), tp.Width())
	}
	ctr, err := NewCounter(tp)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		if v := ctr.Next(); v != int64(k) {
			t.Fatalf("sequential value %d != %d", v, k)
		}
	}
	if _, err := TreeTopologyArity(10, 3); err == nil {
		t.Error("bad width accepted")
	}
}

func TestChannelCounter(t *testing.T) {
	tp, err := TreeTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChannelCounter(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := 0; k < 20; k++ {
		v, err := c.NextAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(k) {
			t.Fatalf("sequential value %d != %d", v, k)
		}
	}
	if _, err := NewChannelCounter(Topology{}, 0); err == nil {
		t.Error("zero topology accepted")
	}
}

func TestChannelCounterConcurrent(t *testing.T) {
	tp, err := BitonicTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChannelCounter(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 4
	const perWorker = 200
	seen := make([]bool, workers*perWorker)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v, err := c.NextAt(w % 4)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if v < 0 || int(v) >= len(seen) || seen[v] {
					t.Errorf("bad value %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

func TestLinearizableCounter(t *testing.T) {
	tp, err := TreeTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := NewLinearizableCounter(tp)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(800)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				mon.Observe(lc.Next)
			}
		}()
	}
	wg.Wait()
	if rep := mon.Report(); !rep.Linearizable() {
		t.Errorf("linearizable counter violated: %v", rep)
	}
	if _, err := lc.NextAt(99); err == nil {
		t.Error("bad input accepted")
	}
	if _, err := NewLinearizableCounter(Topology{}); err == nil {
		t.Error("zero topology accepted")
	}
}
