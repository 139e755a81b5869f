package klock

import (
	"sync/atomic"

	"repro/internal/percpu"
)

// MRLock is the shared read lock of paper §6.2, protecting the share
// group's pregion list. Any number of processes may scan the list (page
// fault, pager); a process that needs to update the list — or what it
// points to — must wait until all scanners are done, and excludes scanners
// while it works.
//
// The logical structure still mirrors the shaddr_t fields (s_acclck /
// s_acccnt / s_waitcnt / s_updwait), but the reader count is distributed:
// instead of one s_acccnt word that every fault-path acquisition bounces
// between CPU caches, each CPU increments its own padded slot and checks
// for a pending update afterwards (increment-then-check). An updater
// announces itself (wDrain), sums the slots, and sleeps until the last
// reader's decrement finds the sum at zero. The acquisition count is a
// per-CPU counter too, so a fast-path RLockOn/RUnlockOn pair writes two
// words, the CPU's slot and its RLocks shard. Fault-path readers on
// different CPUs therefore write different cache lines (past the
// counter's shard count, two CPUs share a shard), which is what lets the
// resident-fault storm scale.
//
// Updates are preferred over new readers so an updater is not starved by a
// stream of page faults; the paper notes updates (fork, exec, mmap, sbrk)
// are rare compared with scans, so the shared lock is almost always free.
type MRLock struct {
	slots  [mrSlots]mrSlot // distributed reader counts, one per CPU
	wstate atomic.Int32    // wNone, wDrain (update waiting), wActive (update holds)

	acclck  Spin // guards the queues, waitcnt, and wstate transitions
	waitcnt int  // threads sleeping on the lock
	drainer *mrWaiter
	rwait   []*mrWaiter
	wwait   []*mrWaiter

	RLocks  percpu.Counter // read acquisitions
	WLocks  atomic.Int64   // update acquisitions
	RSleeps atomic.Int64   // read acquisitions that had to sleep
	WSleeps atomic.Int64   // update acquisitions that had to sleep
}

// mrSlots is the number of distributed reader slots: CPU c uses slot
// c&(mrSlots-1), and the queue-granted path and the no-affinity entry
// points use slot 0. 64 slots keep the fault path write-private up to a
// 64-CPU machine.
const mrSlots = 64

// mrSlot is one padded reader count: the padding keeps neighbouring
// slots off the same cache line, which is the entire point.
type mrSlot struct {
	n atomic.Int64
	_ [56]byte
}

const (
	wNone   int32 = iota // no update pending: readers take the fast path
	wDrain               // an updater waits for the reader sum to drain
	wActive              // an updater holds the lock
)

// mrWaiter is one thread sleeping on the lock. granted is written under
// acclck; wake tokens are level-triggered (Thread.Unblock buffers one), so
// a woken sleeper re-blocks until its waiter is marked granted.
type mrWaiter struct {
	t       Thread
	granted bool
}

// slotOf maps a CPU to its reader slot.
func (l *MRLock) slotOf(cpu int) int {
	if cpu <= 0 {
		return 0
	}
	return cpu & (mrSlots - 1)
}

// RLockOn acquires the lock for scanning, counting the hold on cpu's slot,
// and returns the slot the caller must pass to RUnlockOn. The fast path —
// no update pending — is one increment of a CPU-private word and one load:
// no spin lock, no shared store. cpu < 0 uses slot 0.
func (l *MRLock) RLockOn(t Thread, cpu int) int {
	l.RLocks.AddOn(cpu, 1)
	slot := l.slotOf(cpu)
	if l.wstate.Load() == wNone {
		// Increment-then-check: publish the hold first, then re-examine.
		// Every interleaving with an updater's announce-then-sum is safe:
		// either the updater's sum sees our increment (it waits; we back
		// out and our decrement re-checks the drain), or our re-check sees
		// its announcement (we back out and queue).
		l.slots[slot].n.Add(1)
		if l.wstate.Load() == wNone {
			return slot
		}
		// An updater announced itself while we entered: back out and take
		// the slow path. The decrement may be the one that drains the sum
		// to zero, so it must perform the updater wakeup check.
		l.RUnlockOn(slot)
	}
	for {
		l.acclck.Lock()
		if l.wstate.Load() == wNone && len(l.wwait) == 0 && l.drainer == nil {
			// The update finished between our check and the queue; retry
			// the fast path rather than sleeping on a free lock.
			l.acclck.Unlock()
			l.slots[slot].n.Add(1)
			if l.wstate.Load() == wNone {
				return slot
			}
			l.RUnlockOn(slot)
			continue
		}
		w := &mrWaiter{t: t}
		l.rwait = append(l.rwait, w)
		l.waitcnt++
		l.acclck.Unlock()
		l.RSleeps.Add(1)
		l.sleep(t, w, "mrlock: wait for update to finish")
		// The releasing updater registered our hold on slot 0.
		return 0
	}
}

// RUnlockOn releases a read hold counted on slot (the value RLockOn
// returned). The last reader out hands the lock to a draining updater.
func (l *MRLock) RUnlockOn(slot int) {
	if l.slots[slot&(mrSlots-1)].n.Add(-1) < 0 {
		l.slots[slot&(mrSlots-1)].n.Add(1)
		panic("klock: RUnlock without read hold")
	}
	if l.wstate.Load() == wDrain {
		l.drainWake()
	}
}

// sumReaders totals the distributed slots. Only meaningful for an updater
// that has already announced wDrain (new readers back out), or under
// acclck for diagnostics.
func (l *MRLock) sumReaders() int64 {
	var n int64
	for i := range l.slots {
		n += l.slots[i].n.Load()
	}
	return n
}

// drainWake grants the lock to the draining updater if the reader sum has
// reached zero. Called by any decrement that observes wDrain; the acclck
// serializes it against the updater registering itself.
func (l *MRLock) drainWake() {
	l.acclck.Lock()
	if l.wstate.Load() != wDrain || l.drainer == nil || l.sumReaders() != 0 {
		l.acclck.Unlock()
		return
	}
	w := l.drainer
	l.drainer = nil
	l.waitcnt--
	l.wstate.Store(wActive)
	w.granted = true
	l.acclck.Unlock()
	w.t.Unblock()
}

// Lock acquires the lock for update, excluding all scanners.
func (l *MRLock) Lock(t Thread) {
	l.WLocks.Add(1)
	l.acclck.Lock()
	if l.wstate.Load() == wNone {
		// First updater: announce, then count the readers already inside.
		l.wstate.Store(wDrain)
		if l.sumReaders() == 0 {
			l.wstate.Store(wActive)
			l.acclck.Unlock()
			return
		}
		w := &mrWaiter{t: t}
		l.drainer = w
		l.waitcnt++
		l.acclck.Unlock()
		l.WSleeps.Add(1)
		l.sleep(t, w, "mrlock: wait for scanners to drain")
		return
	}
	// Another update is draining or active: FIFO queue behind it.
	w := &mrWaiter{t: t}
	l.wwait = append(l.wwait, w)
	l.waitcnt++
	l.acclck.Unlock()
	l.WSleeps.Add(1)
	l.sleep(t, w, "mrlock: wait for update to finish")
}

// sleep blocks until w is granted, absorbing stale level-triggered wake
// tokens (a signal poke can leave one buffered in the thread).
func (l *MRLock) sleep(t Thread, w *mrWaiter, reason string) {
	for {
		t.Block(reason)
		l.acclck.Lock()
		granted := w.granted
		l.acclck.Unlock()
		if granted {
			return
		}
	}
}

// Unlock releases an update hold, handing the lock to the next updater if
// one waits, otherwise admitting every waiting reader at once.
func (l *MRLock) Unlock() {
	l.acclck.Lock()
	if l.wstate.Load() != wActive {
		l.acclck.Unlock()
		panic("klock: Unlock without update hold")
	}
	if len(l.wwait) > 0 {
		w := l.wwait[0]
		l.wwait = l.wwait[1:]
		l.waitcnt--
		w.granted = true
		// wstate stays wActive: ownership passes directly.
		l.acclck.Unlock()
		w.t.Unblock()
		return
	}
	rs := l.rwait
	l.rwait = nil
	l.waitcnt -= len(rs)
	// Register the granted readers' holds (on slot 0) before reopening the
	// gate, so an updater arriving the instant wstate goes to wNone counts
	// them in its drain sum.
	if len(rs) > 0 {
		l.slots[0].n.Add(int64(len(rs)))
		for _, w := range rs {
			w.granted = true
		}
	}
	l.wstate.Store(wNone)
	l.acclck.Unlock()
	for _, w := range rs {
		w.t.Unblock()
	}
}

// Readers returns the number of current read holders (0 during an update).
func (l *MRLock) Readers() int {
	l.acclck.Lock()
	defer l.acclck.Unlock()
	if l.wstate.Load() == wActive {
		return 0
	}
	if n := l.sumReaders(); n > 0 {
		return int(n)
	}
	return 0
}

// UpdateHeld reports whether an update is in progress.
func (l *MRLock) UpdateHeld() bool { return l.wstate.Load() == wActive }

// WaitCount returns the number of threads sleeping on the lock.
func (l *MRLock) WaitCount() int {
	l.acclck.Lock()
	defer l.acclck.Unlock()
	return l.waitcnt
}
