//go:build !race

package obs

// shardOwner is free outside race builds: the single-writer rule of a
// Ring shard is checked only when the race detector is on.
type shardOwner struct{}

func (shardOwner) acquire() {}
func (shardOwner) release() {}
