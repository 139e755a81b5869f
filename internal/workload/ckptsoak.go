package workload

// The checkpoint soak: a chaos variant that exercises live
// checkpoint/restore under fault injection and validates every image three
// ways, in the layered style livecore uses — each layer catches a class of
// bug the previous one cannot see.
//
//	L1 (structural): every image taken while members churn must satisfy
//	    the format's own invariants (ordering, extents, sizes) and decode
//	    back to an equal image. Catches serialization bugs.
//	L2 (round trip): restore an image into a brand-new system, checkpoint
//	    the restored group before it runs, and diff the two images with
//	    PIDs masked. Catches restore bugs: a page written to the wrong
//	    place, a lost attribute, a ghost region from the adoptive caller.
//	L3 (differential): at a quiesced point, an iterative pre-copy
//	    checkpoint and a naive stop-everything snapshot must produce the
//	    same image. Catches pre-copy bugs: a racing store that slipped
//	    between a dirty-bitmap harvest and its TLB shootdown.
//
// The soak runs with the fault plan armed, so pass-boundary delays and
// aborted checkpoints (EAGAIN), injected restore ENOMEMs, and all the
// usual chaos interference happen while the layers are checking.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
)

// CkptSoakResult reports one checkpoint soak run.
type CkptSoakResult struct {
	Rounds         int64    // churn rounds completed
	Images         int64    // checkpoints that produced an image
	Aborted        int64    // checkpoint/restore attempts the fault plan aborted
	L1, L2, L3     int64    // validation-layer checks performed
	PrePages       int64    // pages copied live across all checkpoints
	STWPages       int64    // pages copied stopped across all checkpoints
	FaultsInjected int64    // faults the plan injected
	Violations     []string // failed checks (empty = pass)
}

// Ok reports whether every validation layer held.
func (r CkptSoakResult) Ok() bool { return len(r.Violations) == 0 }

func (r CkptSoakResult) String() string {
	return fmt.Sprintf("rounds=%d images=%d aborted=%d l1=%d l2=%d l3=%d pre=%d stw=%d injected=%d violations=%d",
		r.Rounds, r.Images, r.Aborted, r.L1, r.L2, r.L3, r.PrePages, r.STWPages, r.FaultsInjected, len(r.Violations))
}

// ckptSoakFile is the path-backed descriptor the group keeps open across
// checkpoints, so fd capture and reacquire-by-path are part of every L2
// round trip. (Anonymous stream fds are deliberately absent: they restore
// as empty slots, which the strict diff would flag.)
const ckptSoakFile = "/ckpt-soak.dat"

// CkptSoak boots cfg (normally with a fault seed/rate armed), runs a
// share group of members through rounds of churn-then-quiesce, and at
// each round takes live and stopped checkpoints and pushes them through
// the three validation layers.
func CkptSoak(cfg kernel.Config, members, rounds int) CkptSoakResult {
	sys := kernel.NewSystem(cfg)
	var res CkptSoakResult
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Checkpoint with tolerance for the fault plan: the gateway already
	// retries EAGAIN with backoff; a still-failing call counts as an
	// aborted attempt, not a violation.
	tryCkpt := func(c *kernel.Context, passes int) (*ckpt.Image, kernel.CkptInfo) {
		img, info, err := c.Ckpt(kernel.CkptOpts{Passes: passes})
		if err != nil {
			if kernel.ErrnoOf(err) == kernel.EAGAIN {
				res.Aborted++
				return nil, info
			}
			violate("ckpt(passes=%d): %v", passes, err)
			return nil, info
		}
		res.Images++
		res.PrePages += int64(info.PrePages)
		res.STWPages += int64(info.STWPages)
		return img, info
	}

	sys.Start("ckpt-soak", func(c *kernel.Context) {
		// Setup runs under the same armed plan as the soak proper, so
		// every call here retries through injected transient failures.
		var va hw.VAddr
		var fd int
		if !persist(func() error { v, err := c.Mmap(members); va = v; return err }) {
			violate("mmap never succeeded under the fault plan")
			return
		}
		if !persist(func() error {
			f, err := c.Open(ckptSoakFile, fs.ORead|fs.OWrite|fs.OCreat, 0o644)
			fd = f
			return err
		}) {
			violate("open never succeeded under the fault plan")
			return
		}
		persist(func() error { _, err := c.WriteString(fd, va, "soak state"); return err })
		var pids []int
		for i := 0; i < members; i++ {
			var pid int
			ok := persist(func() error {
				id, err := c.Sproc("churner", func(cc *kernel.Context, arg int64) {
					base := va + hw.VAddr(int(arg)*hw.PageSize)
					for r := 0; r < rounds; r++ {
						for w := 0; w < 16; w++ {
							v := uint32(arg)<<24 | uint32(r)<<12 | uint32(w)
							cc.Store32(base+hw.VAddr(w*4), v*2654435761)
						}
						// Quiesce point: the initiator banks one unblock per
						// round, injected EINTR notwithstanding.
						for {
							err := cc.Blockproc(0)
							if err == nil || !errors.Is(err, kernel.ErrInterrupt) {
								break
							}
						}
					}
				}, proc.PRSALL, int64(i))
				pid = id
				return err
			})
			if !ok {
				violate("sproc %d never succeeded under the fault plan", i)
				return
			}
			pids = append(pids, pid)
		}

		for r := 0; r < rounds; r++ {
			// Members are churning (or already parked at this round's
			// quiesce point) — take a live pre-copy checkpoint and run L1.
			if img, _ := tryCkpt(c, 1+r%3); img != nil {
				res.L1++
				if err := img.Validate(); err != nil {
					violate("round %d L1: %v", r, err)
				}
				re, err := ckpt.Decode(img.Encode())
				if err != nil {
					violate("round %d L1 decode: %v", r, err)
				} else if d := ckpt.Diff(img, re, ckpt.DiffOpts{}); len(d) != 0 {
					violate("round %d L1 decode diff: %v", r, d[0])
				}
			}

			// Wait for every member to park in blockproc, then run the
			// stopped-world layers at a state no store can be racing. SSleep
			// alone is not that state: a member the live checkpoint froze
			// mid-churn stays SSleep from the thaw until its goroutine is
			// rescheduled, and then goes on storing.
			for _, pid := range pids {
				for {
					p, ok := sys.Lookup(pid)
					if !ok || p.State() == proc.SZomb || (p.State() == proc.SSleep && p.BlockCnt() < 0) {
						break
					}
					c.Getpid()
				}
			}
			imgPre, _ := tryCkpt(c, 4)
			imgStop, _ := tryCkpt(c, 0)
			if imgPre != nil && imgStop != nil {
				res.L3++
				if d := ckpt.Diff(imgPre, imgStop, ckpt.DiffOpts{}); len(d) != 0 {
					violate("round %d L3: pre-copy vs stop-world: %v", r, d[0])
				}
			}
			if imgPre != nil && r%2 == 0 {
				res.L2++
				if msg := ckptRoundTrip(cfg, imgPre); msg != "" {
					if msg == "aborted" {
						res.Aborted++
						res.L2--
					} else {
						violate("round %d L2: %s", r, msg)
					}
				}
			}
			for _, pid := range pids {
				for {
					err := c.Unblockproc(pid)
					if err == nil || !errors.Is(err, kernel.ErrInterrupt) {
						break
					}
				}
			}
			res.Rounds++
		}
		c.Close(fd)
		for {
			if _, _, err := c.Wait(); err != nil && errors.Is(err, kernel.ErrNoChildren) {
				break
			}
		}
	})
	sys.WaitIdle()

	st := sys.Stats()
	res.FaultsInjected = st.FaultsInjected
	if st.FramesInUse != 0 {
		violate("frames leaked: FramesInUse=%d after idle", st.FramesInUse)
	}
	if n := sys.NProcs(); n != 0 {
		violate("processes leaked: NProcs=%d after idle", n)
	}
	if st.Ckpts != res.Images {
		violate("stats count %d ckpts, soak took %d", st.Ckpts, res.Images)
	}
	return res
}

// ckptRoundTrip is validation layer two: rebuild the image's group in a
// pristine system (same config, so the fault plan stays armed), checkpoint
// the restored group before any member runs its body, and demand the
// re-checkpoint match the original up to PIDs. Returns "" on success,
// "aborted" when the fault plan killed the restore or the re-checkpoint,
// and a violation message otherwise.
func ckptRoundTrip(cfg kernel.Config, orig *ckpt.Image) string {
	sys := kernel.NewSystem(cfg)
	var msg string
	sys.Start("adoptive", func(c *kernel.Context) {
		// The image's descriptor table is reacquired by path; the
		// pristine system needs the file to exist (restore never creates).
		if fd, err := c.Open(ckptSoakFile, fs.OWrite|fs.OCreat, 0o644); err == nil {
			c.Close(fd)
		}
		_, err := c.Restore(orig, func(cc *kernel.Context, _ int64) {
			for {
				err := cc.Blockproc(0)
				if err == nil || !errors.Is(err, kernel.ErrInterrupt) {
					return
				}
			}
		})
		if err != nil {
			if kernel.ErrnoOf(err) == kernel.ENOMEM || kernel.ErrnoOf(err) == kernel.EAGAIN {
				msg = "aborted"
			} else {
				msg = fmt.Sprintf("restore: %v", err)
			}
			for {
				if _, _, werr := c.Wait(); werr != nil && errors.Is(werr, kernel.ErrNoChildren) {
					break
				}
			}
			return
		}
		re, _, err := c.Ckpt(kernel.CkptOpts{Passes: 1})
		switch {
		case err != nil && kernel.ErrnoOf(err) == kernel.EAGAIN:
			msg = "aborted"
		case err != nil:
			msg = fmt.Sprintf("re-checkpoint: %v", err)
		default:
			if d := ckpt.Diff(orig, re, ckpt.DiffOpts{IgnorePIDs: true}); len(d) != 0 {
				msg = fmt.Sprintf("restored group diverges: %v", d[0])
			} else if bytes.Equal(orig.Encode(), re.Encode()) != (len(d) == 0 && samePids(orig, re)) {
				// Encode equality must agree with Diff+PID equality —
				// a self-check on the validators themselves.
				msg = "diff and encode disagree"
			}
		}
		for _, m := range memberPids(c) {
			c.Unblockproc(m)
		}
		for {
			if _, _, werr := c.Wait(); werr != nil && errors.Is(werr, kernel.ErrNoChildren) {
				break
			}
		}
	})
	sys.WaitIdle()
	return msg
}

// persist retries op through injected transient failures (EINTR, EAGAIN,
// ENOMEM) so an armed fault plan cannot starve the soak's setup; false
// when the plan never let the call through.
func persist(op func() error) bool {
	for i := 0; i < 64; i++ {
		err := op()
		if err == nil {
			return true
		}
		switch kernel.ErrnoOf(err) {
		case kernel.EINTR, kernel.EAGAIN, kernel.ENOMEM:
			continue
		default:
			return false
		}
	}
	return false
}

// samePids reports whether two images list identical member PIDs.
func samePids(a, b *ckpt.Image) bool {
	if len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i].PID != b.Members[i].PID {
			return false
		}
	}
	return true
}

// memberPids lists the caller's group co-members, for waking parked
// restored children.
func memberPids(c *kernel.Context) []int {
	sa := kernel.GroupOf(c.P)
	if sa == nil {
		return nil
	}
	var out []int
	self := c.Getpid()
	for _, m := range sa.Members() {
		if m.PID != self {
			out = append(out, m.PID)
		}
	}
	return out
}
