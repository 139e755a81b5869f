package main

import (
	irix "repro"
	"repro/internal/uspin"
)

// vm_fault_mix: a driver and three PR_SALL members, four runnable processes
// on four CPUs. Per round the driver maps a 255-page window, each member
// demand-faults its 85-page slice, the driver forces a whole-space TLB
// shootdown (a 16-page side map/unmap, or on every 8th round an sbrk
// grow+shrink), each member re-reads a seeded subset of its now-resident
// slice, and the driver unmaps the window. Every planned touch faults
// exactly once: first touches are demand-zero fills, re-touches are
// resident fills after the flush. op = one such touch.

const (
	faultRoundsFull = 2400
	faultMembers    = 3
	faultSlice      = 85
	faultWindow     = faultMembers * faultSlice
	faultSidePages  = 16 // > hw.DefaultPageShootdownMax, so the flush is whole-space
	faultRetouchMin = 16
	faultRetouchMax = 48
)

type faultInput struct {
	retouch [][faultMembers][]uint8 // per round, per member: pages to re-read
	ops     int64
}

func faultRounds(scale float64) int {
	n := int(float64(faultRoundsFull) * scale)
	if n < 8 {
		n = 8
	}
	return n
}

// faultOps is the configured op count at the mean re-touch size; the exact
// count depends on the seed and is what the rep reports.
func faultOps(scale float64) int64 {
	per := faultWindow + faultMembers*(faultRetouchMin+faultRetouchMax)/2
	return int64(faultRounds(scale) * per)
}

func faultGen(seed uint64, scale float64) any {
	rnd := newRNG(seed, 3)
	in := &faultInput{retouch: make([][faultMembers][]uint8, faultRounds(scale))}
	pages := make([]uint8, faultSlice)
	for i := range pages {
		pages[i] = uint8(i)
	}
	for r := range in.retouch {
		for m := 0; m < faultMembers; m++ {
			k := faultRetouchMin + rnd.intn(faultRetouchMax-faultRetouchMin+1)
			shuffle(rnd, pages)
			in.retouch[r][m] = append([]uint8(nil), pages[:k]...)
			in.ops += int64(k)
		}
		in.ops += faultWindow
	}
	return in
}

func faultValue(round, member, page int) uint32 {
	return uint32(round+1)*2654435761 ^ uint32(member<<8|page)
}

func faultRun(r *rep) {
	in := r.in.(*faultInput)
	r.ops = in.ops
	sys := r.boot(r.config())
	sys.Start("fault-driver", func(c *irix.Ctx) {
		p := r.proc(c)
		endPopulate := r.phase("bench.populate")
		gate := uspin.Barrier{VA: irix.VAddr(irix.DataBase), N: faultMembers + 1}
		ctl := irix.VAddr(irix.DataBase) + uspin.BarrierBytes // window base, then stop flag
		p.BarrierInit(gate)
		p.Store32(ctl, 0)
		p.Store32(ctl+4, 0)
		// Members park until every stack is carved, so none is faulting
		// while the driver is still inside sproc.
		pids := make([]int, faultMembers)
		for m := range pids {
			pid, err := p.Sproc("faulter", func(mp *pc, arg int64) {
				mp.Blockproc()
				faultMember(mp, in, gate, ctl, int(arg))
			}, irix.PRSALL, int64(m))
			if err != nil {
				r.fail(r.ops, "sproc: %v", err)
				return
			}
			pids[m] = pid
		}
		for _, pid := range pids {
			p.Unblockproc(pid)
		}
		endPopulate()
		r.begin(c)
		endRun := r.phase("bench.run")
		for round := range in.retouch {
			p.opBegin(int64(round + 1))
			va, err := p.Mmap(faultWindow)
			if err != nil {
				r.fail(r.ops, "mmap: %v", err)
			}
			p.Store32(ctl, uint32(va))
			p.BarrierEnter(gate) // release the first touches
			p.BarrierEnter(gate) // slices resident
			if round%8 == 7 {
				brk, _ := p.Sbrk(faultSidePages * irix.PageSize)
				p.Store32(brk, 7)
				p.Sbrk(-faultSidePages * irix.PageSize)
			} else {
				side, _ := p.Mmap(faultSidePages)
				p.Munmap(side)
			}
			p.BarrierEnter(gate) // TLBs flushed: release the re-touches
			p.BarrierEnter(gate) // re-touches checked
			if err := p.Munmap(va); err != nil {
				r.fail(1, "munmap: %v", err)
			}
			p.opEnd()
		}
		p.Store32(ctl+4, 1)
		p.BarrierEnter(gate)
		endRun()
		r.end(c)
		for range pids {
			p.Wait()
		}
	})
	sys.WaitIdle()
	defer r.phase("bench.verify")()
	r.idle(sys)
}

func faultMember(p *pc, in *faultInput, gate uspin.Barrier, ctl irix.VAddr, me int) {
	for round := 0; ; round++ {
		p.BarrierEnter(gate)
		if stop, _ := p.Load32(ctl + 4); stop == 1 {
			return
		}
		base, _ := p.Load32(ctl)
		lo := irix.VAddr(base) + irix.VAddr(me*faultSlice*irix.PageSize)
		p.opBegin(int64(round + 1))
		for i := 0; i < faultSlice; i++ {
			if err := p.Store32(lo+irix.VAddr(i*irix.PageSize), faultValue(round, me, i)); err != nil {
				p.r.fail(1, "first touch: %v", err)
			}
		}
		p.opEnd()
		p.BarrierEnter(gate)
		p.BarrierEnter(gate)
		p.opBegin(int64(round + 1))
		for _, pg := range in.retouch[round][me] {
			got, err := p.Load32(lo + irix.VAddr(int(pg)*irix.PageSize))
			if err != nil || got != faultValue(round, me, int(pg)) {
				p.r.fail(1, "round %d member %d page %d reads %#x, want %#x (%v)",
					round, me, pg, got, faultValue(round, me, int(pg)), err)
			}
		}
		p.opEnd()
		p.BarrierEnter(gate)
	}
}
