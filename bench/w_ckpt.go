package main

import (
	irix "repro"
	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/uspin"
)

// ckpt_restore: three PR_SALL members hold 256 resident pages each. Per
// cycle every member dirties a seeded subset, acknowledges and blocks; the
// initiator checkpoints the group (one live pre-copy pass), the harness
// encodes, decodes and validates the image, boots a second System, restores
// the group there, every respawned member checks all of its pages against
// the harness's model, and a re-checkpoint of the restored group must diff
// empty against the original (PIDs ignored). op = one such cycle.

const (
	ckptCyclesFull = 10
	ckptMembers    = 3
	ckptPages      = 256 // resident pages per member
	ckptDirtyMin   = 32
	ckptDirtyMax   = 96
)

type ckptInput struct {
	dirty [][ckptMembers][]uint8 // per cycle, per member: pages to rewrite
}

func ckptOps(scale float64) int64 {
	n := int(float64(ckptCyclesFull) * scale)
	if n < 2 {
		n = 2
	}
	return int64(n)
}

func ckptGen(seed uint64, scale float64) any {
	rnd := newRNG(seed, 5)
	in := &ckptInput{dirty: make([][ckptMembers][]uint8, ckptOps(scale))}
	pages := make([]uint8, ckptPages)
	for i := range pages {
		pages[i] = uint8(i)
	}
	for k := range in.dirty {
		for m := 0; m < ckptMembers; m++ {
			n := ckptDirtyMin + rnd.intn(ckptDirtyMax-ckptDirtyMin+1)
			shuffle(rnd, pages)
			in.dirty[k][m] = append([]uint8(nil), pages[:n]...)
		}
	}
	return in
}

func ckptValue(cycle, member, page int) uint32 {
	return uint32(cycle+1)*40503 ^ uint32(member)<<24 ^ uint32(page)<<8 | 1
}

func ckptSlot(base irix.VAddr, member, page int) irix.VAddr {
	return base + irix.VAddr((member*ckptPages+page)*irix.PageSize)
}

func ckptRun(r *rep) {
	in := r.in.(*ckptInput)
	r.ops = int64(len(in.dirty))
	sys := r.boot(r.config())
	sys.Start("ckpt-driver", func(c *irix.Ctx) {
		p := r.proc(c)
		endPopulate := r.phase("bench.populate")
		base, err := p.Mmap(ckptMembers * ckptPages)
		if err != nil {
			r.fail(r.ops, "mmap: %v", err)
			return
		}
		// want is the harness's model of the window: what every page must
		// hold after the cycles run so far. -1 is "before the first cycle".
		var want [ckptMembers][ckptPages]uint32
		for m := range want {
			for pg := range want[m] {
				want[m][pg] = ckptValue(-1, m, pg)
			}
		}
		ack := uspin.Word{VA: irix.VAddr(irix.DataBase)} // members done writing
		p.WordStore(ack, 0)
		pids := make([]int, ckptMembers)
		for m := range pids {
			pid, err := p.Sproc("dirtier", func(mp *pc, arg int64) {
				mp.Blockproc() // parked until every stack is carved
				ckptMember(mp, in, base, ack, int(arg))
			}, irix.PRSALL, int64(m))
			if err != nil {
				r.fail(r.ops, "sproc: %v", err)
				return
			}
			pids[m] = pid
		}
		wake := func() {
			for _, pid := range pids {
				p.Unblockproc(pid)
			}
		}
		wake()
		p.AwaitMin(ack, ckptMembers) // resident sets established
		endPopulate()

		r.begin(c)
		endRun := r.phase("bench.run")
		for k := range in.dirty {
			p.opBegin(int64(k + 1))
			for m := 0; m < ckptMembers; m++ {
				for _, pg := range in.dirty[k][m] {
					want[m][pg] = ckptValue(k, m, int(pg))
				}
			}
			wake()
			p.AwaitMin(ack, uint32(k+2)*ckptMembers) // this cycle's writes are in
			img, _, err := p.Ckpt(irix.CkptOpts{Passes: 1})
			if err != nil {
				r.fail(1, "cycle %d: ckpt: %v", k, err)
				p.opEnd()
				continue
			}
			if msg := ckptRoundTrip(p, img, base, &want, int64(k+1)); msg != "" {
				r.fail(1, "cycle %d: %s", k, msg)
			}
			p.opEnd()
		}
		endRun()
		r.end(c)
		wake() // members see the cycles are over and exit
		for range pids {
			p.Wait()
		}
	})
	sys.WaitIdle()
	defer r.phase("bench.verify")()
	r.idle(sys)
}

// ckptMember makes its slice resident, then per cycle rewrites that cycle's
// pages, acknowledges, and blocks until the initiator wakes it.
func ckptMember(p *pc, in *ckptInput, base irix.VAddr, ack uspin.Word, me int) {
	for pg := 0; pg < ckptPages; pg++ {
		p.Store32(ckptSlot(base, me, pg), ckptValue(-1, me, pg))
	}
	p.WordAdd(ack, 1)
	p.Blockproc()
	for k := range in.dirty {
		p.opBegin(int64(k + 1))
		for _, pg := range in.dirty[k][me] {
			p.Store32(ckptSlot(base, me, int(pg)), ckptValue(k, me, int(pg)))
		}
		p.WordAdd(ack, 1)
		p.opEnd()
		p.Blockproc() // asleep through the checkpoint, between ops
	}
}

// ckptRoundTrip takes one image through encode, decode, validate, a restore
// into a fresh System with every member checking its pages, and a
// re-checkpoint that must match the original. It returns "" or what broke.
func ckptRoundTrip(p *pc, img *irix.CkptImage, base irix.VAddr, want *[ckptMembers][ckptPages]uint32, op int64) string {
	r := p.r
	var enc []byte
	var dec *irix.CkptImage
	var err error
	p.span("ckpt.encode", lCkpt, func() { enc = img.Encode() })
	p.span("ckpt.decode", lCkpt, func() { dec, err = ckpt.Decode(enc) })
	if err != nil {
		return "decode: " + err.Error()
	}
	p.span("ckpt.validate", lCkpt, func() { err = dec.Validate() })
	if err != nil {
		return "validate: " + err.Error()
	}

	var sys2 *irix.System
	p.span("bench.boot", lBench, func() { sys2 = irix.New(r.config()) })
	msg := ""
	sys2.Start("adoptive", func(c2 *irix.Ctx) {
		a := r.proc(c2)
		a.opBegin(op)
		defer a.opEnd()
		n, err := a.Restore(dec, func(mp *pc, arg int64) {
			mp.opBegin(op)
			me := int(arg)
			for pg := 0; pg < ckptPages; pg++ {
				if got, err := mp.Load32(ckptSlot(base, me, pg)); err != nil || got != want[me][pg] {
					r.fail(1, "restored member %d page %d reads %#x, want %#x (%v)", me, pg, got, want[me][pg], err)
					break
				}
			}
			mp.opEnd()
			mp.Blockproc() // stay a member until the re-checkpoint is taken
		})
		if err != nil {
			msg = "restore: " + err.Error()
			return
		}
		re, _, err := a.Ckpt(irix.CkptOpts{Passes: 1})
		if err != nil {
			msg = "re-checkpoint: " + err.Error()
		} else {
			a.span("ckpt.diff", lCkpt, func() {
				if d := ckpt.Diff(dec, re, ckpt.DiffOpts{IgnorePIDs: true}); len(d) != 0 {
					msg = "restored group diverges: " + d[0]
				}
			})
		}
		self := a.Getpid()
		for _, m := range kernel.GroupOf(c2.P).Members() {
			if m.PID != self {
				a.Unblockproc(m.PID)
			}
		}
		for i := 0; i < n; i++ {
			a.Wait()
		}
	})
	// While the second machine runs, the initiator only waits: that time
	// belongs to the restored processes' own segments, not to this one.
	p.opEnd()
	sys2.WaitIdle()
	p.opBegin(op)
	r.addSystem(sys2)
	if st := sys2.Stats(); msg == "" && (sys2.NProcs() != 0 || st.FramesInUse != 0) {
		msg = "second system did not drain"
	}
	return msg
}
