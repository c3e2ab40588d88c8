package obs

import (
	"sort"
	"sync"
)

// NodeProc is the processor identity of an event a network node records
// on its own behalf rather than as a hop of a token's journey — a
// suppressed duplicate delivery, say. No token runs under it, so analyses
// keep such events out of every token's journey; Ring files it, like any
// negative identity, in its own last shard.
const NodeProc int32 = -1

// ringShard is one processor's window of recent events. Its lock is
// taken once per event; on the hot path it is uncontended, because each
// processor records into its own shard, and it is what makes concurrent
// writers and mid-run readers safe.
type ringShard struct {
	mu   sync.Mutex
	buf  []Event
	n    int64    // total events recorded (monotone; may exceed len(buf))
	next int      // n mod len(buf), the slot the next event goes to
	_    [16]byte // keep shards off each other's cache lines
}

// Ring is a per-processor ring-buffer recorder: each processor id maps to
// its own lock-guarded shard, so Record is one uncontended lock, a slot
// write and no allocation. When a shard fills, the oldest events of that
// shard are overwritten (the newest window survives, which is the part a
// violation witness needs). Every method is safe to call while other
// goroutines keep recording.
type Ring struct {
	// shards holds one shard per processor id, then the node shard that
	// takes every event with a negative P.
	shards []ringShard
}

// NewRing returns a recorder with one shard per processor id in [0, procs)
// plus the node shard, and capacity perProc events per shard.
func NewRing(procs, perProc int) *Ring {
	if procs < 1 {
		procs = 1
	}
	if perProc < 1 {
		perProc = 1
	}
	r := &Ring{shards: make([]ringShard, procs+1)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, perProc)
	}
	return r
}

// Record implements Tracer. Events with P >= procs fold onto a shard by
// modulus; events with a negative P (NodeProc) go to the node shard.
func (r *Ring) Record(ev Event) {
	procs := len(r.shards) - 1
	i := int(ev.P)
	if i < 0 {
		i = procs
	} else if i >= procs {
		i %= procs
	}
	s := &r.shards[i]
	s.mu.Lock()
	s.buf[s.next] = ev
	if s.next++; s.next == len(s.buf) {
		s.next = 0
	}
	s.n++
	s.mu.Unlock()
}

// counts returns the retained and overwritten event totals of all shards.
func (r *Ring) counts() (kept int, over int64) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n, c := s.n, int64(len(s.buf))
		s.mu.Unlock()
		if n > c {
			over += n - c
			n = c
		}
		kept += int(n)
	}
	return kept, over
}

// Len returns the number of events currently retained across all shards.
func (r *Ring) Len() int {
	kept, _ := r.counts()
	return kept
}

// Overwritten returns how many events were lost to ring wraparound.
func (r *Ring) Overwritten() int64 {
	_, over := r.counts()
	return over
}

// collect returns the retained window of every shard, shard by shard and
// oldest first within a shard, each shard read under its lock.
func (r *Ring) collect() []Event {
	var all []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.n > int64(s.next) { // the shard has filled: buf[next:] is older
			all = append(all, s.buf[s.next:]...)
		}
		all = append(all, s.buf[:s.next]...)
		s.mu.Unlock()
	}
	return all
}

// Events returns the retained events of all shards merged into one slice
// sorted by timestamp (ties broken by shard then recording order, so the
// result is deterministic).
func (r *Ring) Events() []Event {
	all := r.collect()
	sort.SliceStable(all, func(i, j int) bool { return all[i].T < all[j].T })
	return all
}

// Snapshot returns the retained events, causally closed (ancestor chains
// cut by ring wraparound are dropped) and merged in span order so the
// result reads as a happens-before story: by span id when both events
// carry one, by timestamp otherwise.
func (r *Ring) Snapshot() (events []Event, orphans int) {
	all := r.collect()
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Span != 0 && b.Span != 0 {
			return a.Span < b.Span
		}
		return a.T < b.T
	})
	return CausalClosure(all)
}
