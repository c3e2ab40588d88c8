//go:build race

package obs

import "testing"

// TestRingOwnerCheck pins the race-build guard: a Record into a shard
// another writer is still inside panics instead of tearing an event.
func TestRingOwnerCheck(t *testing.T) {
	r := NewRing(2, 4)
	r.shards[1].owner.acquire() // a writer is mid-Record on shard 1
	defer func() {
		if recover() == nil {
			t.Fatal("second writer on a busy shard did not panic")
		}
	}()
	r.Record(Event{P: 1})
}
