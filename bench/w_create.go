package main

import (
	"fmt"

	irix "repro"
)

// create_churn: one parent with 64 dirtied data pages creates and joins
// children one at a time, drawing the creation primitive from an exactly
// balanced, seeded shuffle of fork, sproc(PR_SALL), sproc without PR_SADDR
// and thread_create. Each child writes a seeded set of 0–8 of the parent's
// data pages and exits. op = one create+join.

const (
	createOpsFull   = 24000
	createDataPages = 64
	createMaxWrites = 8
)

const (
	kindFork = iota
	kindSproc
	kindSprocNVM
	kindThread
)

type createOp struct {
	kind  uint8
	n     uint8
	pages [createMaxWrites]uint8
}

func createOps(scale float64) int64 {
	n := int(float64(createOpsFull)*scale) / 4 * 4
	if n < 40 {
		n = 40
	}
	return int64(n)
}

func createGen(seed uint64, scale float64) any {
	n := int(createOps(scale))
	rnd := newRNG(seed, 2)
	ops := make([]createOp, n)
	for i := range ops {
		ops[i].kind = uint8(i % 4) // exactly n/4 of each kind
	}
	shuffle(rnd, ops)
	pages := make([]uint8, createDataPages)
	for i := range pages {
		pages[i] = uint8(i)
	}
	for i := range ops {
		op := &ops[i]
		op.n = uint8(rnd.intn(createMaxWrites + 1))
		// A partial shuffle draws op.n distinct pages.
		for j := 0; j < int(op.n); j++ {
			k := j + rnd.intn(createDataPages-j)
			pages[j], pages[k] = pages[k], pages[j]
			op.pages[j] = pages[j]
		}
	}
	return ops
}

func dataPage(i uint8) irix.VAddr {
	return irix.VAddr(irix.DataBase) + irix.VAddr(int(i)*irix.PageSize)
}

func createRun(r *rep) {
	ops := r.in.([]createOp)
	r.ops = int64(len(ops))
	sys := r.boot(r.config())
	sys.Start("creator", func(c *irix.Ctx) {
		p := r.proc(c)
		endPopulate := r.phase("bench.populate")
		// 64 KiB stacks keep address-space use bounded over 120 k creations.
		p.SetStackSize(64 * 1024)
		var shadow [createDataPages]uint32 // what the parent must read back
		for i := range shadow {
			shadow[i] = 0xA0000000 | uint32(i)
			p.Store32(dataPage(uint8(i)), shadow[i])
		}
		endPopulate()
		r.begin(c)
		endRun := r.phase("bench.run")
		frames0 := c.S.Machine.Mem.InUse()
		kindCyc := createLoop(p, ops, &shadow)
		r.check(c.S.Machine.Mem.InUse() == frames0,
			"frames in use moved from %d to %d across the churn", frames0, c.S.Machine.Mem.InUse())
		endRun()
		r.end(c)
		r.extra = map[string]float64{}
		per := float64(len(ops) / 4)
		for k, name := range createKinds {
			r.extra["proc.create."+name+".simcyc_per_op"] = float64(kindCyc[k]) / per
		}
		// Shape checks, not accuracy: the paper's ordering of creation costs.
		r.check(kindCyc[kindSproc] <= kindCyc[kindFork], "sproc (%d simcyc) costs more than fork (%d)", kindCyc[kindSproc], kindCyc[kindFork])
		r.check(kindCyc[kindThread] < kindCyc[kindSproc], "thread (%d simcyc) is not cheaper than sproc (%d)", kindCyc[kindThread], kindCyc[kindSproc])
	})
	sys.WaitIdle()
	defer r.phase("bench.verify")()
	r.idle(sys)
}

// createLoop runs the churn and returns the machine cycles each kind's
// create+join pairs consumed (both sides: nothing else is runnable).
func createLoop(p *pc, ops []createOp, shadow *[createDataPages]uint32) (kindCyc [4]int64) {
	r := p.r
	mach := p.c.S.Machine
	for i := range ops {
		op := &ops[i]
		id := int64(i + 1)
		stamp := uint32(id)
		body := func(ch *pc) {
			ch.opBegin(id)
			for _, pg := range op.pages[:op.n] {
				ch.Store32(dataPage(pg), stamp)
			}
			ch.opEnd()
		}
		entry := func(ch *pc, _ int64) { body(ch) }

		p.opBegin(id)
		c0 := mach.TotalCycles()
		var err error
		switch op.kind {
		case kindFork:
			_, err = p.Fork("child", body)
		case kindSproc:
			_, err = p.Sproc("child", entry, irix.PRSALL, 0)
		case kindSprocNVM:
			_, err = p.Sproc("child", entry, irix.PRSALL&^irix.PRSADDR, 0)
		case kindThread:
			_, err = p.ThreadCreate("child", entry, 0)
		}
		if err != nil {
			r.fail(1, "%s %d: %v", createKinds[op.kind], i, err)
			p.opEnd()
			continue
		}
		if _, _, err := p.Wait(); err != nil {
			r.fail(1, "wait %d: %v", i, err)
			p.opEnd()
			continue
		}
		kindCyc[op.kind] += mach.TotalCycles() - c0

		// A sharing child's stores must be visible to the parent; a
		// copy-on-write child's must not.
		shares := op.kind == kindSproc || op.kind == kindThread
		bad := ""
		for _, pg := range op.pages[:op.n] {
			want := shadow[pg]
			if shares {
				want = stamp
				shadow[pg] = stamp
			}
			if got, err := p.Load32(dataPage(pg)); err != nil || got != want {
				bad = fmt.Sprintf("%s %d: parent reads %#x on page %d, want %#x (%v)", createKinds[op.kind], i, got, pg, want, err)
			}
		}
		if bad != "" {
			r.fail(1, "%s", bad)
		}
		p.opEnd()
	}
	return kindCyc
}
