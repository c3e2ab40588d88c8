package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// NodeProc is the processor identity of an event a network node records
// on its own behalf rather than as a hop of a token's journey — a
// suppressed duplicate delivery, say. No token runs under it, so such an
// event can never tear a token's shard; Ring files it, like any negative
// identity, in a shared lock-guarded shard.
const NodeProc int32 = -1

// ringShard is one processor's private event buffer. Only the owning
// processor writes buf and n; the count is published atomically so Len can
// be sampled live, but slot contents are only safe to read once the run has
// quiesced (e.g. after the workers' WaitGroup).
type ringShard struct {
	buf   []Event
	n     atomic.Int64 // total events recorded (monotone; may exceed len(buf))
	owner shardOwner   // race builds: panics on a second concurrent writer
	_     [40]byte     // keep shards off each other's cache lines
}

// put appends ev, overwriting the oldest event once the shard is full.
func (s *ringShard) put(ev Event) {
	n := s.n.Load()
	s.buf[n%int64(len(s.buf))] = ev
	s.n.Store(n + 1)
}

// Ring is a lock-free per-processor ring-buffer recorder: each processor id
// maps to its own shard, so Record is a single bounds check, a slot write,
// and an atomic publish — no locks, no allocation, no sharing between
// processors. When a shard fills, the oldest events of that shard are
// overwritten (the newest window survives, which is the part a violation
// witness needs).
type Ring struct {
	// shards holds one shard per processor id, then the node shard that
	// takes every event with a negative P.
	shards []ringShard
	nodeMu sync.Mutex // serializes the node shard's writers
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

// Record implements Tracer. Each processor id must have one writer at a
// time: events with P >= procs fold onto a shard by modulus, and then
// correctness relies on that single-writer contract. Events with a
// negative P (NodeProc) go to the node shard, whose writers take a lock.
func (r *Ring) Record(ev Event) {
	procs := len(r.shards) - 1
	if ev.P < 0 {
		r.nodeMu.Lock()
		r.shards[procs].put(ev)
		r.nodeMu.Unlock()
		return
	}
	s := &r.shards[int(ev.P)%procs]
	s.owner.acquire()
	s.put(ev)
	s.owner.release()
}

// Len returns the number of events currently retained across all shards.
func (r *Ring) Len() int {
	total := 0
	for i := range r.shards {
		n := r.shards[i].n.Load()
		if c := int64(len(r.shards[i].buf)); n > c {
			n = c
		}
		total += int(n)
	}
	return total
}

// Overwritten returns how many events were lost to ring wraparound.
func (r *Ring) Overwritten() int64 {
	var total int64
	for i := range r.shards {
		n := r.shards[i].n.Load()
		if over := n - int64(len(r.shards[i].buf)); over > 0 {
			total += over
		}
	}
	return total
}

// Events returns the retained events of all shards merged into one slice
// sorted by timestamp (ties broken by shard then recording order, so the
// result is deterministic). It must only be called after the traced run has
// quiesced — concurrent Record calls race with it.
func (r *Ring) Events() []Event {
	type tagged struct {
		ev    Event
		shard int
		seq   int64
	}
	var all []tagged
	for i := range r.shards {
		s := &r.shards[i]
		n := s.n.Load()
		c := int64(len(s.buf))
		start := int64(0)
		if n > c {
			start = n - c
		}
		for seq := start; seq < n; seq++ {
			all = append(all, tagged{ev: s.buf[seq%c], shard: i, seq: seq})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.T != all[j].ev.T {
			return all[i].ev.T < all[j].ev.T
		}
		if all[i].shard != all[j].shard {
			return all[i].shard < all[j].shard
		}
		return all[i].seq < all[j].seq
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
	}
	return out
}
