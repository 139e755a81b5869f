package main

import (
	"fmt"

	irix "repro"
	"repro/internal/uspin"
)

// attr_sync: a driver and four PR_SALL members, five runnable processes on
// four CPUs — oversubscribed on purpose. Each round the driver updates one
// shared attribute (umask, ulimit, current directory, or an open+close on
// the shared descriptor table, in an exactly balanced seeded shuffle), every
// member enters the kernel, must observe the new value, and acknowledges
// through a shared word. op = one round.

const (
	attrRoundsFull = 64
	attrMembers    = 4
	attrDirs       = 8
)

const (
	attrUmask = iota
	attrUlimit
	attrCwd
	attrFd
)

type attrRound struct {
	kind  uint8
	value int64 // umask bits, ulimit bytes, or directory index
}

func attrOps(scale float64) int64 {
	n := int(float64(attrRoundsFull)*scale) / 4 * 4
	if n < 8 {
		n = 8
	}
	return int64(n)
}

func attrGen(seed uint64, scale float64) any {
	rnd := newRNG(seed, 4)
	rounds := make([]attrRound, attrOps(scale))
	for i := range rounds {
		rounds[i].kind = uint8(i % 4) // exactly a quarter of each kind
	}
	shuffle(rnd, rounds)
	dir := 0
	for i := range rounds {
		switch rounds[i].kind {
		case attrUmask:
			rounds[i].value = int64(rnd.intn(0o1000))
		case attrUlimit:
			rounds[i].value = int64(1<<20 + rnd.intn(1<<30))
		case attrCwd:
			dir = (dir + 1 + rnd.intn(attrDirs-1)) % attrDirs // never the current one
			rounds[i].value = int64(dir)
		}
	}
	return rounds
}

func attrDir(i int64) string { return fmt.Sprintf("/attr/d%d", i) }

func attrRun(r *rep) {
	rounds := r.in.([]attrRound)
	r.ops = int64(len(rounds))
	sys := r.boot(r.config())
	sys.Start("attr-driver", func(c *irix.Ctx) {
		p := r.proc(c)
		endPopulate := r.phase("bench.populate")
		// Each directory holds a "marker" file; its inode number is how a
		// member tells which directory a relative lookup landed in.
		var markerIno [attrDirs]uint32
		p.Mkdir("/attr", 0o755)
		for i := range markerIno {
			p.Mkdir(attrDir(int64(i)), 0o755)
			path := attrDir(int64(i)) + "/marker"
			fd, err := p.Open(path, irix.OWrite|irix.OCreat, 0o644)
			if err != nil {
				r.fail(r.ops, "create %s: %v", path, err)
				return
			}
			p.Close(fd)
			st, _ := p.Stat(path)
			markerIno[i] = st.Ino
		}
		p.Chdir(attrDir(0))
		base := irix.VAddr(irix.DataBase)
		gen := uspin.Word{VA: base}     // round the driver has published
		ack := uspin.Word{VA: base + 4} // members that have observed it
		fdWord := base + 8              // descriptor opened by an attrFd round
		p.WordStore(gen, 0)
		p.WordStore(ack, 0)
		pids := make([]int, attrMembers)
		for m := range pids {
			pid, err := p.Sproc("observer", func(mp *pc, _ int64) {
				mp.Blockproc() // parked until every stack is carved
				attrMember(mp, rounds, gen, ack, fdWord, &markerIno)
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
		for i, rd := range rounds {
			g := uint32(i + 1)
			p.opBegin(int64(g))
			fd := -1
			// The updater's critical path is the updating call alone; the
			// wait for acknowledgements is scaffolding and stays out.
			u0 := c.P.Cycles.Load()
			var err error
			switch rd.kind {
			case attrUmask:
				p.Umask(uint16(rd.value))
			case attrUlimit:
				err = p.SetUlimit(rd.value)
			case attrCwd:
				err = p.Chdir(attrDir(rd.value))
			case attrFd:
				fd, err = p.Open("marker", irix.ORead, 0)
			}
			r.updaterCyc += c.P.Cycles.Load() - u0
			if err != nil {
				r.fail(1, "round %d update: %v", g, err)
			}
			if fd >= 0 {
				p.Store32(fdWord, uint32(fd))
			}
			p.WordStore(gen, g)
			if err := p.AwaitMin(ack, g*attrMembers); err != nil {
				r.fail(1, "round %d await: %v", g, err)
			}
			if fd >= 0 {
				u0 = c.P.Cycles.Load()
				p.Close(fd)
				r.updaterCyc += c.P.Cycles.Load() - u0
			}
			p.opEnd()
		}
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

func attrMember(p *pc, rounds []attrRound, gen, ack uspin.Word, fdWord irix.VAddr, markerIno *[attrDirs]uint32) {
	dir := int64(0)
	for i, rd := range rounds {
		g := uint32(i + 1)
		if err := p.AwaitMin(gen, g); err != nil {
			p.r.fail(1, "member await: %v", err)
			return
		}
		p.opBegin(int64(g))
		// Each observation starts with a kernel entry: the single-test
		// sync point where the deferred update is reconciled.
		ok := true
		switch rd.kind {
		case attrUmask:
			p.Getpid()
			p.c.P.Mu.Lock()
			got := p.c.P.Umask
			p.c.P.Mu.Unlock()
			ok = got == uint16(rd.value)
		case attrUlimit:
			got, err := p.GetUlimit()
			ok = err == nil && got == rd.value
		case attrCwd:
			dir = rd.value
			st, err := p.Stat("marker")
			ok = err == nil && st.Ino == markerIno[dir]
		case attrFd:
			fd, _ := p.Load32(fdWord)
			_, err := p.Lseek(int(fd), 0, irix.SeekCur)
			ok = err == nil
		}
		if !ok {
			p.r.fail(1, "round %d: member %d did not observe the %s update", g, p.c.P.PID, [...]string{"umask", "ulimit", "cwd", "fd"}[rd.kind])
		}
		p.WordAdd(ack, 1)
		p.opEnd()
	}
}
