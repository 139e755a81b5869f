// Package percpu provides a statistics counter sharded by processor, so that
// the processors adding to it never write the same cache line. It is a leaf:
// hw, vm, klock and core all count through it.
package percpu

import "sync/atomic"

// lineSize is the cache-line size the padding is laid out for.
const lineSize = 64

// nShards is the number of shards in a Counter, a power of two. CPU c adds
// to shard c mod nShards, so every CPU of a machine up to nShards CPUs
// writes a line of its own; past that, CPUs share shards.
const nShards = 16

// shard is one processor's share of a count, padded to a full line.
type shard struct {
	n atomic.Int64
	_ [lineSize - 8]byte
}

// Counter is a cumulative statistic kept as per-CPU shards: an add is one
// atomic add on the adding CPU's own cache line, and Load sums the shards.
// The zero value is ready to use.
//
// A sum is exact only at quiescence. Load reads the shards one after
// another, so while adders run it can miss an add it would have seen in a
// single word and see a later one; an identity between counters, such as
// a frame account's Used == Charges - Uncharges, holds once every adder
// has been joined (WaitIdle, a WaitGroup), not in the middle of a storm.
// Counters that gate a decision — reservations, reference counts — are not
// statistics and stay single atomics.
type Counter struct {
	// The lead pad keeps shard 0's word off the line of whatever field
	// precedes the counter; each shard's own pad covers the next field.
	_      [lineSize - 8]byte
	shards [nShards]shard
}

// AddOn adds n to cpu's shard. A negative cpu, the no-affinity id the
// callers pass, uses shard 0.
func (c *Counter) AddOn(cpu int, n int64) {
	if cpu < 0 {
		cpu = 0
	}
	c.shards[cpu&(nShards-1)].n.Add(n)
}

// Add adds n for a caller with no CPU id (shard 0).
func (c *Counter) Add(n int64) { c.shards[0].n.Add(n) }

// Load returns the sum of the shards: exact once the adders are quiescent.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}
