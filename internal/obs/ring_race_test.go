package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingOverwrittenUnderContention pins the wraparound accounting while
// writers on every shard race a live reader: Len, Overwritten, Events and
// Snapshot all read the shards under their locks, so calling them mid-run
// must be race-free (this test is part of the CI race matrix), the counts
// must be monotone, and the final figures must be exact.
func TestRingOverwrittenUnderContention(t *testing.T) {
	const procs, perProc, events = 8, 128, 2000
	r := NewRing(procs, perProc)
	var wg sync.WaitGroup
	var writersDone atomic.Bool
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{T: int64(i), P: int32(p), Tok: int32(i), Kind: KindBalancer})
			}
		}(p)
	}
	// Concurrent observer: Len and Overwritten must never regress while
	// the writers run (each shard's count is monotone), and the merged
	// views must never hold more than the shards can retain.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		lastLen, lastOver := 0, int64(0)
		for !writersDone.Load() {
			if l := r.Len(); l < lastLen {
				t.Errorf("Len regressed mid-run: %d after %d", l, lastLen)
				return
			} else {
				lastLen = l
			}
			if o := r.Overwritten(); o < lastOver {
				t.Errorf("Overwritten regressed mid-run: %d after %d", o, lastOver)
				return
			} else {
				lastOver = o
			}
			if n := len(r.Events()); n > procs*perProc {
				t.Errorf("Events returned %d mid-run, more than the %d retainable", n, procs*perProc)
				return
			}
			if evs, _ := r.Snapshot(); len(evs) > procs*perProc {
				t.Errorf("Snapshot returned %d mid-run, more than the %d retainable", len(evs), procs*perProc)
				return
			}
		}
	}()
	wg.Wait()
	writersDone.Store(true)
	<-readerDone

	if got, want := r.Len(), procs*perProc; got != want {
		t.Fatalf("Len after wraparound = %d, want %d", got, want)
	}
	if got, want := r.Overwritten(), int64(procs*(events-perProc)); got != want {
		t.Fatalf("Overwritten = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != procs*perProc {
		t.Fatalf("Events retained %d, want %d", len(evs), procs*perProc)
	}
	// Every shard must have kept exactly its newest window.
	perShardMin := map[int32]int64{}
	for _, ev := range evs {
		if cur, ok := perShardMin[ev.P]; !ok || ev.T < cur {
			perShardMin[ev.P] = ev.T
		}
	}
	for p, min := range perShardMin {
		if min != events-perProc {
			t.Fatalf("shard %d oldest retained T = %d, want %d (newest window)", p, min, events-perProc)
		}
	}
}

// TestRingFoldedShardsAccounting pins the out-of-range-P routing:
// events recorded with negative processor ids land on the node shard,
// oversized ones fold onto a processor shard by modulus, and all are
// still counted by Len/Overwritten.
func TestRingFoldedShardsAccounting(t *testing.T) {
	r := NewRing(2, 4)
	for i := 0; i < 6; i++ {
		r.Record(Event{T: int64(i), P: -7}) // the node shard
	}
	r.Record(Event{T: 100, P: 4}) // folds onto shard 0
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5 (4 retained on the node shard, 1 on shard 0)", got)
	}
	if got := r.Overwritten(); got != 2 {
		t.Fatalf("Overwritten = %d, want 2", got)
	}
}

// TestRingNodeShardConcurrentWriters checks that any number of goroutines
// may record under one processor id at once — the node shard (NodeProc)
// and a processor shard alike (this test is part of the CI race matrix) —
// and that every event is counted, including the ones wraparound drops.
func TestRingNodeShardConcurrentWriters(t *testing.T) {
	const writers, events, perProc = 8, 200, 1000
	r := NewRing(2, perProc)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{T: int64(i), P: NodeProc, Tok: int32(w), Kind: KindDedup})
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{T: int64(i), P: 1, Tok: int32(w), Kind: KindBalancer})
			}
		}(w)
	}
	wg.Wait()
	// Each of the two shards took writers*events = 1600 events and keeps
	// the newest perProc of them.
	if got, want := r.Len(), 2*perProc; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := r.Overwritten(), int64(2*(writers*events-perProc)); got != want {
		t.Fatalf("Overwritten = %d, want %d", got, want)
	}
	if got, want := len(r.Events()), 2*perProc; got != want {
		t.Fatalf("Events returned %d, want %d", got, want)
	}
}
