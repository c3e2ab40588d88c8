//go:build race

package obs

import "sync/atomic"

// shardOwner enforces a Ring shard's single-writer rule in race builds: a
// Record that enters a shard while another Record is still inside it
// panics at once, naming the broken rule, rather than leaving a torn
// event for the race detector to maybe catch.
type shardOwner struct {
	writers atomic.Int32
}

func (o *shardOwner) acquire() {
	if o.writers.Add(1) != 1 {
		panic("obs: two goroutines recorded into one Ring shard at once; each processor id must have a single writer")
	}
}

func (o *shardOwner) release() { o.writers.Add(-1) }
