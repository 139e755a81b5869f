package percpu

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestCounterStormRace: goroutines add to one zero-value counter with CPU
// ids that are negative, in range, and past the shard count, at GOMAXPROCS
// 1, 2 and NumCPU; once they have joined, Load is the sum of every add.
// Under -race this is also the check that AddOn and Load touch the shards
// only atomically.
func TestCounterStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const goroutines, adds = 8, 5000
			ids := []int{-7, -1, 0, 1, nShards - 1, nShards, 3*nShards + 5, 1 << 20}
			var c Counter // the zero value, never initialised
			var want int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				cpu := ids[g%len(ids)]
				n := int64(g + 1)
				want += n * adds
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < adds; i++ {
						c.AddOn(cpu, n)
						if i%1000 == 0 {
							_ = c.Load() // a reader racing the adders
						}
					}
				}()
			}
			c.Add(-3)
			want -= 3
			wg.Wait()
			if got := c.Load(); got != want {
				t.Fatalf("Load after join = %d, want Σ adds = %d", got, want)
			}
		})
	}
}

// TestCounterShardOf pins the id-to-shard map: a negative id and Add use
// shard 0, and an id past the shard count wraps.
func TestCounterShardOf(t *testing.T) {
	for _, tc := range []struct{ cpu, shard int }{
		{-1, 0}, {-100, 0}, {0, 0}, {3, 3}, {nShards - 1, nShards - 1}, {nShards, 0}, {nShards + 2, 2},
	} {
		var c Counter
		c.AddOn(tc.cpu, 1)
		if c.shards[tc.shard].n.Load() != 1 {
			t.Errorf("AddOn(%d) did not land on shard %d", tc.cpu, tc.shard)
		}
	}
	var c Counter
	c.Add(5)
	if c.shards[0].n.Load() != 5 {
		t.Error("Add did not land on shard 0")
	}
}

// TestHotFieldsOwnCacheLine: two shards' words never share a line, and
// shard 0's word is a line away from the start of the counter, so a field
// before it does not share shard 0's line.
func TestHotFieldsOwnCacheLine(t *testing.T) {
	var c Counter
	if stride := unsafe.Sizeof(c.shards[0]); stride < lineSize {
		t.Errorf("shard stride %d bytes, want >= %d", stride, lineSize)
	}
	if lead := unsafe.Offsetof(c.shards); lead < lineSize-8 {
		t.Errorf("shard 0 starts %d bytes into the counter, want >= %d", lead, lineSize-8)
	}
}
