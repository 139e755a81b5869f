package kernel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/proc"
)

// Regression for the sproc update-lock identity bug (ROADMAP item 0):
// CarveStack took the share block's update lock as the unborn child, so when
// the writer had to wait for faulting readers to drain, the parent slept on
// the child's behalf — it kept its own CPU, and the wakeup dispatched a
// process with no goroutine. CPU slots leaked until every CPU was "busy"
// with nobody running. The trigger is exactly this: members hold the read
// side (every TLB miss resolves under it) while the leader sprocs.
func TestSprocWhileMembersFaultDrains(t *testing.T) {
	levels := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const faulters, children, window = 3, 200, 4 * hw.TLBSize
			cfg := testConfig()
			cfg.MaxProcs = faulters + children + 8
			s := NewSystem(cfg)
			s.Start("leader", func(c *Context) {
				va, err := c.Mmap(faulters*window + 1)
				if err != nil {
					t.Errorf("mmap: %v", err)
					return
				}
				stop := va + hw.VAddr(faulters*window*hw.PageSize)
				for f := 0; f < faulters; f++ {
					// A window four times the TLB: every access misses and
					// takes the fault path's shared read lock.
					_, err := c.Sproc("faulter", func(cc *Context, arg int64) {
						base := va + hw.VAddr(int(arg)*window*hw.PageSize)
						for pg := 0; ; pg = (pg + 1) % window {
							cc.Store32(base+hw.VAddr(pg*hw.PageSize), uint32(pg))
							if v, _ := cc.Load32(stop); v != 0 {
								return
							}
						}
					}, proc.PRSALL, int64(f))
					if err != nil {
						t.Errorf("sproc faulter: %v", err)
					}
				}
				for i := 0; i < children; i++ {
					if _, err := c.Sproc("child", func(*Context, int64) {}, proc.PRSALL, 0); err != nil {
						t.Errorf("sproc child %d: %v", i, err)
						break
					}
					if i%8 == 7 { // reap in batches so the proc table stays small
						for j := 0; j < 8; j++ {
							c.Wait()
						}
					}
				}
				c.Store32(stop, 1)
				for {
					if _, _, err := c.Wait(); err != nil {
						break
					}
				}
			})
			done := make(chan struct{})
			go func() { s.WaitIdle(); close(done) }()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("system wedged: %d of %d CPUs idle, %d processes left", s.Sched.IdleCPUs(), cfg.NCPU, s.NProcs())
			}
			// WaitIdle returns when the last process body has; that process
			// gives its CPU back just after, so allow it the moment.
			for deadline := time.Now().Add(2 * time.Second); s.Sched.IdleCPUs() != cfg.NCPU && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if idle := s.Sched.IdleCPUs(); idle != cfg.NCPU {
				t.Errorf("drained with %d of %d CPUs idle: a CPU slot leaked", idle, cfg.NCPU)
			}
		})
	}
}
