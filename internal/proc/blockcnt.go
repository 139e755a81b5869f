package proc

// This file is the process half of the paper's blockproc(2)/unblockproc(2)
// sleep-wake subsystem (§3): when busy-waiting is no longer profitable —
// a partner is descheduled or dead — a share-group member must be able to
// block in the kernel and be woken by name. The primitive is a per-process
// counting block count: unblockproc banks a wakeup (saturating, so wakes
// are never lost), blockproc consumes one, and a consume that drives the
// count negative puts the process to sleep until the count returns to
// zero. "Unblock before block" therefore never loses the wake — the
// paper's required semantics for user-level synchronization, where the
// releasing member can run arbitrarily far ahead of the blocking one.

// BlockCntMax bounds the banked unblock count. IRIX capped the count so a
// runaway unblocker cannot overflow it; further unblocks saturate rather
// than wrap.
const BlockCntMax = 1 << 15

// BlockprocEnter consumes one banked unblock, reporting whether the
// caller must sleep (the count went negative). Called by p itself on the
// blockproc path; a false return means a banked wakeup paid for the block
// and the caller returns to user mode immediately.
func (p *Proc) BlockprocEnter() bool {
	p.blockMu.Lock()
	defer p.blockMu.Unlock()
	p.blockCnt--
	return p.blockCnt < 0
}

// BlockprocSleep sleeps until banked unblocks return the count to zero,
// tolerating spurious wakeups by re-checking the count each time. It
// reports false when a deliverable signal breaks the sleep instead; the
// consumed count is restored so the aborted block does not eat a future
// unblock. Must be called by p's own goroutine after BlockprocEnter
// returned true.
func (p *Proc) BlockprocSleep(reason string) bool {
	for {
		p.blockMu.Lock()
		if p.blockCnt >= 0 {
			p.blockSleep = false
			p.blockMu.Unlock()
			return true
		}
		if p.SignalPending() {
			// EINTR: undo this block's decrement so the banked count
			// again reflects only completed blocks. An unblock that
			// raced in stays banked for the next blockproc.
			if p.blockCnt < BlockCntMax {
				p.blockCnt++
			}
			p.blockSleep = false
			p.blockMu.Unlock()
			return false
		}
		p.blockSleep = true
		p.blockMu.Unlock()
		// A signal posted between the check above and this Block is not
		// lost: Post deposits the wake token, so Block
		// returns immediately and the loop re-checks SignalPending.
		p.Block(reason)
	}
}

// BlockprocWake banks one unblock (saturating at BlockCntMax) and wakes
// the sleeper when the count returns to zero. It reports whether a
// sleeping process was actually released — false means the unblock was
// banked (no sleeper, or the sleeper still owes more unblocks).
func (p *Proc) BlockprocWake() bool {
	p.blockMu.Lock()
	if p.blockCnt < BlockCntMax {
		p.blockCnt++
	}
	woken := p.blockSleep && p.blockCnt >= 0
	if woken {
		p.blockSleep = false
	}
	p.blockMu.Unlock()
	if woken {
		p.Unblock()
	}
	return woken
}

// SetBlockCnt sets the banked unblock count outright (setblockproccnt(2)),
// clamping to [0, BlockCntMax], and wakes the sleeper if the new count
// releases it. The caller validates the sign; the clamp here is a
// belt-and-braces bound. It reports whether a sleeper was released.
func (p *Proc) SetBlockCnt(cnt int32) bool {
	if cnt < 0 {
		cnt = 0
	}
	if cnt > BlockCntMax {
		cnt = BlockCntMax
	}
	p.blockMu.Lock()
	p.blockCnt = cnt
	woken := p.blockSleep
	if woken {
		p.blockSleep = false
	}
	p.blockMu.Unlock()
	if woken {
		p.Unblock()
	}
	return woken
}

// BlockCnt returns the current banked count; negative while a block is in
// progress (diagnostics and tests).
func (p *Proc) BlockCnt() int32 {
	p.blockMu.Lock()
	defer p.blockMu.Unlock()
	return p.blockCnt
}
