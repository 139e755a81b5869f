package core

import (
	"repro/internal/fs"
	"repro/internal/proc"
)

// SyncEntry reconciles p's private copies of shared resources from the
// shared address block. The kernel calls it when the single test of p's
// p_flag word finds sync bits set on kernel entry (paper §6.3: "when a
// shared process enters the system via a system call, the collection of
// bits in p_flag is checked in a single test; if any are set then a
// routine to handle the synchronization is called").
func (sa *ShAddr) SyncEntry(p *proc.Proc) {
	bits := p.TakeSyncBits()
	if bits == 0 {
		return
	}
	sa.Syncs.Add(1)
	sa.Adopt(p, p, proc.Mask(bits))
}

// lockFds takes fupdSema for caller, counting a sleep (CountFdSleeps).
func (sa *ShAddr) lockFds(caller *proc.Proc, reason string) {
	if sa.fupdSema.P(caller, reason) && sa.fdSleeps != nil {
		sa.fdSleeps.Add(1)
	}
}

// syncFdsLocked copies the block's descriptor table into p's, adjusting
// reference counts. Another member may have opened a descriptor past the
// end of p's table, so the table is grown to the block's length first —
// truncating would silently drop those descriptors. Caller holds fupdSema.
func (sa *ShAddr) syncFdsLocked(p *proc.Proc) {
	p.Mu.Lock()
	p.GrowFd(len(sa.ofile))
	for i := range sa.ofile {
		blk := sa.ofile[i]
		if p.Fd[i] == blk {
			p.FdFlags[i] = sa.pofile[i]
			continue
		}
		if p.Fd[i] != nil {
			p.Fd[i].Release()
		}
		if blk != nil {
			p.Fd[i] = blk.Hold()
		} else {
			p.Fd[i] = nil
			p.LowerFdHint(i)
		}
		p.FdFlags[i] = sa.pofile[i]
	}
	p.Mu.Unlock()
}

// UpdateFds runs one change to p's descriptor table under the §6.3 update
// protocol, all of it here so no caller can hold part of it: take the
// update semaphore ("semaphore for single threading open file updating");
// re-check p's descriptor sync bit *after* acquiring it and bring p's table
// up to date if another member updated in the meantime ("it is important
// that the second process be synchronized prior to being allowed to update
// the resource. This is handled by also checking the synchronization bits
// after acquiring the lock"); run change under p.Mu; publish the slot it
// returns into the block, which takes its own reference; tell the other
// sharers; release. A change that fails is released without publishing or
// telling anyone — it must leave p's table as it found it. The caller has
// checked that p shares PR_SFDS. pushed is markOthers' count.
func (sa *ShAddr) UpdateFds(p *proc.Proc, change func() (fd int, err error)) (fd, pushed int, err error) {
	sa.lockFds(p, "shaddr: fd update")
	defer sa.fupdSema.V()
	// Clear only the fd bit; other dirty resources are reconciled at the
	// next kernel entry as usual.
	for {
		old := p.Flag.Load()
		if old&proc.FSyncFds == 0 {
			break
		}
		if p.Flag.CompareAndSwap(old, old&^proc.FSyncFds) {
			sa.syncFdsLocked(p)
			break
		}
	}
	p.Mu.Lock()
	if fd, err = change(); err == nil {
		sa.publishFdLocked(p, fd)
	}
	p.Mu.Unlock()
	if err != nil {
		return fd, 0, err
	}
	return fd, sa.markOthers(p, proc.PRSFDS), nil
}

// publishFdLocked copies p's descriptor slot fd into the block's shadow
// table, the block taking its own reference. Caller holds fupdSema and p.Mu.
func (sa *ShAddr) publishFdLocked(p *proc.Proc, fd int) {
	if fd >= len(sa.ofile) {
		// The updater's table grew past the block's shadow copy; extend the
		// shadow so the new slot is published, not dropped. Its length stays
		// the highest published slot plus one (what every sync walks), its
		// capacity doubles up to the ceiling like proc.GrowFd's, so a group
		// opening its n-th descriptor does not copy n slots each time. The
		// shadow never shrinks, so the slots past its length are empty.
		if fd >= cap(sa.ofile) {
			n := max(fd+1, min(2*cap(sa.ofile), p.FdCeiling()))
			ofile := make([]*fs.File, len(sa.ofile), n)
			pofile := make([]uint8, len(sa.pofile), n)
			copy(ofile, sa.ofile)
			copy(pofile, sa.pofile)
			sa.ofile, sa.pofile = ofile, pofile
		}
		sa.ofile, sa.pofile = sa.ofile[:fd+1], sa.pofile[:fd+1]
	}
	old := sa.ofile[fd]
	var now *fs.File
	if fd < len(p.Fd) {
		now = p.Fd[fd]
		sa.pofile[fd] = p.FdFlags[fd]
	}
	if old != now {
		sa.ofile[fd] = nil
		if now != nil {
			sa.ofile[fd] = now.Hold()
		}
		old.Release()
	}
}

// attrs locates one holder's copy of the attribute rows of the §5.1 table
// (PR_SDIR, PR_SUMASK, PR_SULIMIT, PR_SID): a member's user-area fields or
// the block's shadows. Descriptors are not here — their row moves slot by
// slot under fupdSema (UpdateFds, syncFdsLocked).
type attrs struct {
	cdir, rdir **fs.Inode
	umask      *uint16
	ulimit     *int64
	uid, gid   *uint16
}

// copyAttrs copies the attribute rows res names between p's user area and
// the block's shadows, under both their locks: member to block when publish
// is set, block to member otherwise. Directories are reference-counted: the
// destination takes its own references and drops the ones it held.
func (sa *ShAddr) copyAttrs(p *proc.Proc, res proc.Mask, publish bool) {
	if res&(proc.PRSDIR|proc.PRSUMASK|proc.PRSULIMIT|proc.PRSID) == 0 {
		return
	}
	p.Mu.Lock()
	defer p.Mu.Unlock()
	sa.rupdLock.Lock()
	defer sa.rupdLock.Unlock()
	dst := attrs{&p.Cdir, &p.Rdir, &p.Umask, &p.Ulimit, &p.Uid, &p.Gid}
	src := attrs{&sa.cdir, &sa.rdir, &sa.cmask, &sa.limit, &sa.uid, &sa.gid}
	if publish {
		dst, src = src, dst
	}
	if res&proc.PRSDIR != 0 {
		oldc, oldr := *dst.cdir, *dst.rdir
		*dst.cdir, *dst.rdir = (*src.cdir).Hold(), (*src.rdir).Hold()
		oldc.Release()
		oldr.Release()
	}
	if res&proc.PRSUMASK != 0 {
		*dst.umask = *src.umask
	}
	if res&proc.PRSULIMIT != 0 {
		*dst.ulimit = *src.ulimit
	}
	if res&proc.PRSID != 0 {
		*dst.uid, *dst.gid = *src.uid, *src.gid
	}
}

// Publish copies p's own values of the attribute resources res into the
// block and marks every other member sharing them out of date (the update
// half of §6.3); p has already changed its user area. The caller has
// checked that p shares res. pushed is markOthers' count.
func (sa *ShAddr) Publish(p *proc.Proc, res proc.Mask) (pushed int) {
	sa.copyAttrs(p, res, true)
	return sa.markOthers(p, res)
}

// Adopt copies the block's values of the resources res into p, limited to
// what p's share mask says it shares: the reconcile half of §6.3, and how
// a new member — already on the member list, so no later update can miss
// it — starts out with the group's view. The descriptor semaphore is slept
// on as caller: p itself at kernel entry, the parent for a child that has
// no thread yet.
func (sa *ShAddr) Adopt(caller, p *proc.Proc, res proc.Mask) {
	res &= p.ShMask()
	if res&proc.PRSFDS != 0 {
		sa.lockFds(caller, "shaddr: fd table sync")
		sa.syncFdsLocked(p)
		sa.fupdSema.V()
	}
	sa.copyAttrs(p, res, false)
}

// ShadowEnv returns the block's current shadow attribute values (for
// diagnostics and checkpoint capture).
func (sa *ShAddr) ShadowEnv() (cdir, rdir *fs.Inode, umask uint16, ulimit int64, uid, gid uint16) {
	sa.rupdLock.Lock()
	defer sa.rupdLock.Unlock()
	return sa.cdir, sa.rdir, sa.cmask, sa.limit, sa.uid, sa.gid
}
