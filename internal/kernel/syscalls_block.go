package kernel

import (
	"errors"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/proc"
)

// This file implements the paper's §3 process-blocking calls —
// blockproc(2), unblockproc(2), setblockproccnt(2) — the kernel half of
// hybrid spin-then-block synchronization. Each process carries a
// saturating block count (internal/proc/blockcnt.go): unblockproc banks a
// wakeup, blockproc consumes one and sleeps while the count is negative.
// An unblock issued before the corresponding block is therefore never
// lost, which is what lets a user-level lock release a waiter it has only
// just observed registering.
//
// Divergence from IRIX: blockproc may only block the calling process
// (pid 0 or the caller's own pid). Suspending another running process
// asynchronously has no sensible meaning in this simulation, where a
// process is a goroutine that blocks only at its own kernel crossings;
// unblockproc and setblockproccnt address any process, kill(2)-style.

// ErrBadBlockPid rejects a blockproc target other than the caller.
var ErrBadBlockPid = errors.New("kernel: blockproc: only the caller may block itself") // EINVAL

// blockPermission applies the kill(2) permission rule: root may poke
// anyone, others only processes with their own uid.
func (c *Context) blockPermission(target *proc.Proc) error {
	c.P.Mu.Lock()
	uid := c.P.Uid
	c.P.Mu.Unlock()
	target.Mu.Lock()
	tuid := target.Uid
	target.Mu.Unlock()
	if uid != 0 && uid != tuid {
		return ErrPerm
	}
	return nil
}

// blockprocReason is the sleep reason a process parked in blockproc(2)
// shows in LastSleep (diagnostics, and tests waiting for that park).
const blockprocReason = "blockproc(2)"

// Blockproc decrements the caller's block count and, if it went negative,
// sleeps until banked unblocks bring it back to zero. pid must be 0 or
// the caller's own pid. A banked unblock-before-block returns immediately
// without sleeping; a deliverable signal breaks the sleep with EINTR
// (deliberately not restartable — like pause(2), EINTR is the contract).
func (c *Context) Blockproc(pid int) error {
	return invoke0(c, SysBlockproc, func() error {
		if pid != 0 && pid != c.P.PID {
			return ErrBadBlockPid
		}
		p := c.P
		if !p.BlockprocEnter() {
			return nil // a banked unblock paid for this block
		}
		c.S.blocks.Add(1)
		if pl := c.S.faults; pl.Armed(faultinject.SiteBlockSleep) {
			if hit, _ := pl.Decide(faultinject.SiteBlockSleep, uint32(p.PID)); hit {
				// Spurious wakeup: deposit a stale wake token. The sleep
				// loop re-checks the count and goes back down.
				pl.Note(faultinject.SiteBlockSleep, faultinject.FaultWakeup, uint32(p.PID))
				p.NotifyWake()
			}
		}
		if !p.BlockprocSleep(blockprocReason) {
			return ErrInterrupt
		}
		return nil
	})
}

// Unblockproc banks one wakeup for pid, releasing it if it is (or is
// about to be) asleep in blockproc. Unblocking a process that has not yet
// blocked is the normal fast case: the count saturates at
// proc.BlockCntMax and the next blockproc consumes it.
func (c *Context) Unblockproc(pid int) error {
	return invoke0(c, SysUnblockproc, func() error {
		target, ok := c.S.Lookup(pid)
		if !ok {
			return ErrNoProc
		}
		if err := c.blockPermission(target); err != nil {
			return err
		}
		if target.BlockprocWake() {
			c.S.blockWakes.Add(1)
		} else {
			c.S.bankedWakes.Add(1)
		}
		return nil
	})
}

// Setblockproccnt sets pid's banked unblock count outright — the
// administrative reset IRIX provided for unwedging a group whose counts
// drifted. cnt must be in [0, proc.BlockCntMax]; a sleeping target is
// released (its count is no longer negative).
func (c *Context) Setblockproccnt(pid, cnt int) error {
	return invoke0(c, SysSetblockproccnt, func() error {
		if cnt < 0 || cnt > proc.BlockCntMax {
			return fmt.Errorf("kernel: setblockproccnt: count %d out of range [0,%d]", cnt, proc.BlockCntMax)
		}
		target, ok := c.S.Lookup(pid)
		if !ok {
			return ErrNoProc
		}
		if err := c.blockPermission(target); err != nil {
			return err
		}
		if target.SetBlockCnt(int32(cnt)) {
			c.S.blockWakes.Add(1)
		}
		return nil
	})
}

// NoteSpinToBlock counts one spin-to-block conversion: a uspin bounded
// spin that gave up and fell back to blockproc. Surface for Stats().
func (c *Context) NoteSpinToBlock() { c.S.spinBlocks.Add(1) }
