package workload

// The S10 driver: measures what iterative pre-copy buys. A share group of
// dirtiers re-writes its working set at a geometrically decaying rate —
// hot at first, trailing off — while the driver takes one checkpoint with
// a varying number of pre-copy passes. With zero passes the whole resident
// set is copied inside the stop-the-world window; each added pass moves
// the earlier (larger) share of the copying into live execution and leaves
// only the still-cooling tail for the window, so the final STW delta
// shrinks as passes grow and converges to zero once the passes outlast the
// churn.
//
// That is a statement about simulated time, and simulated CPUs share no
// clock: with the dirtiers on CPUs of their own, how far they get while the
// initiator copies is the host scheduler's decision and the tail of one run
// says nothing about the next. The driver therefore time-slices the group
// on one simulated CPU, where the slice length in charged cycles is the
// only thing that paces a dirtier against the initiator and the same pass
// budget leaves the same tail on every run.

import (
	"errors"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
)

// ckptEpochCrossings paces the dirtiers: each churn epoch ends with this
// many idle kernel crossings (~100 cycles each), and the checkpoint's
// PassGap is matched to it so one pre-copy pass faces roughly one epoch's
// worth of re-dirtying.
const ckptEpochCrossings = 512

// CkptPrecopy boots cfg as a uniprocessor, runs members dirtiers over
// pagesEach pages each, and checkpoints the group once with the given
// pre-copy pass budget while the churn decays. Returns the checkpoint's
// cost report.
func CkptPrecopy(cfg kernel.Config, members, pagesEach, passes int) (kernel.CkptInfo, error) {
	cfg.NCPU = 1
	sys := kernel.NewSystem(cfg)
	var out kernel.CkptInfo
	var outErr error
	sys.Start("ckpt-bench", func(c *kernel.Context) {
		va, err := c.Mmap(members * pagesEach)
		if err != nil {
			outErr = err
			return
		}
		// Last word of each member's first page doubles as its ready flag.
		ready := func(m int) hw.VAddr {
			return va + hw.VAddr(m*pagesEach*hw.PageSize+hw.PageSize-4)
		}
		var pids []int
		for i := 0; i < members; i++ {
			pid, err := c.Sproc("dirtier", func(cc *kernel.Context, arg int64) {
				base := va + hw.VAddr(int(arg)*pagesEach*hw.PageSize)
				// Establish the full resident set, then signal readiness
				// so the measured checkpoint starts against a stable
				// pass-0 copy size.
				for pg := 0; pg < pagesEach; pg++ {
					cc.Store32(base+hw.VAddr(pg*hw.PageSize), uint32(arg)<<16|uint32(pg))
				}
				cc.Store32(ready(int(arg)), 1)
				// Decaying churn: every epoch lasts about the same
				// simulated time, but each halves the number of pages
				// re-dirtied and doubles the idle spacing between
				// stores, so the dirtying rate cools exponentially
				// while staying spread across the epoch (bursts would
				// make the final delta depend on phase luck, not on the
				// pass count).
				pace := 8
				for batch := pagesEach; batch > 0; batch /= 2 {
					for pg := 0; pg < batch; pg++ {
						cc.Store32(base+hw.VAddr(pg*hw.PageSize+4), uint32(batch)<<8|uint32(pg))
						for k := 0; k < pace; k++ {
							cc.Getpid()
						}
					}
					pace *= 2
				}
				cc.Blockproc(0)
			}, proc.PRSALL, int64(i))
			if err != nil {
				outErr = err
				return
			}
			pids = append(pids, pid)
		}
		for i := 0; i < members; i++ {
			for {
				if v, _ := c.Load32(ready(i)); v == 1 {
					break
				}
				c.Getpid()
			}
		}
		img, info, err := c.Ckpt(kernel.CkptOpts{
			Passes:  passes,
			PassGap: ckptEpochCrossings * 100, // ≈ one churn epoch per pass
		})
		if err != nil {
			outErr = err
		} else if err := img.Validate(); err != nil {
			outErr = err
		}
		out = info
		for _, pid := range pids {
			for {
				err := c.Unblockproc(pid)
				if err == nil || !errors.Is(err, kernel.ErrInterrupt) {
					break
				}
			}
		}
		for {
			if _, _, err := c.Wait(); err != nil && errors.Is(err, kernel.ErrNoChildren) {
				break
			}
		}
	})
	sys.WaitIdle()
	return out, outErr
}
