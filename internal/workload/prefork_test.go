package workload

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
)

// TestPrefork drives the prefork pool driver end to end: every connection
// answered, worker churn real (more creations than the steady pool), and
// the lazy-creation books balanced.
func TestPrefork(t *testing.T) {
	conns := 96
	if testing.Short() {
		conns = 48
	}
	m := Prefork(small(), PreforkConfig{Conns: conns, Workers: 4, Lifespan: 8})
	if m.P50 <= 0 || m.P99 < m.P50 {
		t.Errorf("latency distribution broken: p50=%d p99=%d", m.P50, m.P99)
	}
	if m.Creations <= m.Workers {
		t.Errorf("no pool churn: %d creations for a pool of %d", m.Creations, m.Workers)
	}
	if m.LazyDups == 0 {
		t.Error("worker creation never took the lazy duplication path")
	}
}

// TestPreforkCreationStormRace is the -race conservation check for O(1)
// member creation (DESIGN.md §16): several share-group members churn
// COW-imaged children concurrently — half touch their image (materializing
// the pending duplication and COW-breaking against the group's pages,
// racing the members' own stores), half exit untouched. Once the storm
// drains, the books must balance exactly: every lazy clone materialized or
// dropped, every charged frame returned to the group account, every frame
// freed.
func TestPreforkCreationStormRace(t *testing.T) {
	const (
		members = 4
		touched = 8 // image pages the master dirties and touchy kids re-break
	)
	kidsPer := 40
	if testing.Short() {
		kidsPer = 10
	}
	s := newSession(small())
	var acct *hw.FrameAcct
	s.Sys.Start("driver", func(c *kernel.Context) {
		for i := 0; i < touched; i++ {
			c.Store32(dataVA(i), uint32(i))
		}
		for mIdx := 0; mIdx < members; mIdx++ {
			c.Sproc("churner", func(cc *kernel.Context, arg int64) {
				for g := 0; g < kidsPer; g++ {
					if _, err := cc.Sproc("kid", func(kc *kernel.Context, kind int64) {
						if kind%2 == 0 {
							return // exit untouched: the O(1) drop path
						}
						for i := 0; i < touched; i++ {
							kc.Store32(dataVA(i), ^uint32(i)) // COW break in the clone
						}
					}, proc.PRSFDS, int64(g)); err != nil {
						panic(err)
					}
					// The member's own store races the kid's materialization:
					// the group page re-breaks against whatever aliases the
					// resolution just installed.
					cc.Store32(dataVA(int(arg)), uint32(g))
					if _, _, err := cc.Wait(); err != nil {
						panic(err)
					}
				}
			}, proc.PRSALL, int64(mIdx))
		}
		acct = kernel.GroupOf(c.P).FrameAcct()
		for mIdx := 0; mIdx < members; mIdx++ {
			if _, _, err := c.Wait(); err != nil {
				panic(err)
			}
		}
		// Quiet tail: with no member storing any more, a no-op child's
		// clones are guaranteed to exit untouched — the deterministic check
		// that the O(1) drop path exists at the kernel level too.
		for g := 0; g < members; g++ {
			if _, err := c.Sproc("idlekid", func(*kernel.Context, int64) {}, proc.PRSFDS, 0); err != nil {
				panic(err)
			}
			if _, _, err := c.Wait(); err != nil {
				panic(err)
			}
		}
	})
	s.Sys.WaitIdle()

	st := s.Sys.Stats()
	if st.LazyDups == 0 {
		t.Fatal("storm never created a lazy clone")
	}
	if st.LazyBreaks == 0 {
		t.Error("no clone was ever materialized by a touch")
	}
	if st.LazyDrops == 0 {
		t.Error("no clone ever exited untouched (quiet-tail kids should drop)")
	}
	checkDrainedAcct(t, "group", acct)
}
