// Package uspin provides user-level synchronization on shared memory —
// the highest-bandwidth, lowest-latency mechanism of paper §3: "the best
// performance is obtained using some form of busy-waiting ... with
// hardware support, synchronization speeds can approach memory access
// speeds." Locks and barriers live in the simulated shared address space
// and are manipulated with the hardware's interlocked operations, so no
// kernel interaction is needed on the fast path.
//
// Busy-waiting is only the fast path, though: when a partner is
// descheduled or dead, spinning burns the processor for nothing. The
// hybrid primitives here spin a bounded number of polls, then register in
// a waiter table beside the lock word, publish a waiter bit, and block in
// the kernel with blockproc(2); release performs an unblockproc(2)
// fan-out over the registered waiters. All spin paths are signal
// interruptible (EINTR), so a spinner orphaned by a dead lock holder dies
// on kill instead of looping forever.
package uspin

import (
	"errors"

	"repro/internal/hw"
	"repro/internal/kernel"
)

// spinRounds is the bounded-spin budget of the hybrid primitives: how
// many kernel.SpinPollBatch-sized rounds Mutex.Lock and Barrier.Enter
// burn before converting the wait to a blockproc sleep. A variable only so
// a test can force every waiter down the sleep path.
var spinRounds = 2

// Memory footprints. A Mutex or Barrier owns this many bytes at its VA:
// the lock words plus a small waiter-pid table the blocking slow path
// registers in. Callers placing data beside a primitive must leave the
// whole footprint to it.
const (
	MutexBytes   = 64
	BarrierBytes = 64
)

// Lock-word bits.
const (
	lockHeld    uint32 = 1 << 0 // the mutex is held
	lockWaiters uint32 = 1 << 1 // blocked waiters are registered
)

// Waiter-table capacities (words remaining after the header words).
const (
	mutexMaxWaiters    = MutexBytes/4 - 3
	barrierMaxSleepers = BarrierBytes/4 - 4
)

// ErrZeroBarrier rejects a Barrier with N == 0: the first arrival would
// count itself as 1 ≠ 0 and spin unreleasably.
var ErrZeroBarrier = errors.New("uspin: barrier with N == 0 can never release")

// ─── waiter table ────────────────────────────────────────────────────────

// wtab is a small waiter-pid table in shared memory: a count word and cap
// pid slots, guarded by a spin word. Guard critical sections are a
// handful of memory operations, so a plain spin guard is appropriate.
type wtab struct {
	guard, cnt, tab hw.VAddr
	cap             int
}

// lock acquires the guard. Interruptible: a caught signal surfaces as
// ErrIntr, which is safe before any registration has happened.
func (w wtab) lock(c *kernel.Context) error {
	for {
		ok, err := c.CAS32(w.guard, 0, 1)
		if err != nil || ok {
			return err
		}
		if _, err := c.SpinWait32(w.guard, func(v uint32) bool { return v == 0 }); err != nil {
			return err
		}
	}
}

// lockCleanup acquires the guard on a cancellation or release path,
// absorbing EINTR: the caller is already unwinding on a delivered signal
// and must finish its table surgery regardless; a fatal signal still
// terminates through the delivery unwind.
func (w wtab) lockCleanup(c *kernel.Context) error {
	for {
		err := w.lock(c)
		if err == nil || !errors.Is(err, kernel.ErrInterrupt) {
			return err
		}
	}
}

// unlock releases the guard. Only the holder stores the zero, so a plain
// store is race-free here (unlike the mutex lock word, which mixes CAS
// publishers).
func (w wtab) unlock(c *kernel.Context) error { return c.Store32(w.guard, 0) }

// add registers pid unless already present, reporting whether the table
// had room (an already-present pid counts as room). Caller holds the
// guard.
func (w wtab) add(c *kernel.Context, pid uint32) (bool, error) {
	n, err := c.Load32(w.cnt)
	if err != nil {
		return false, err
	}
	for i := uint32(0); i < n; i++ {
		v, err := c.Load32(w.tab + hw.VAddr(4*i))
		if err != nil {
			return false, err
		}
		if v == pid {
			return true, nil
		}
	}
	if int(n) >= w.cap {
		return false, nil
	}
	if err := c.Store32(w.tab+hw.VAddr(4*n), pid); err != nil {
		return false, err
	}
	return true, c.Store32(w.cnt, n+1)
}

// remove deletes pid if present, preserving FIFO order of the rest.
// Caller holds the guard.
func (w wtab) remove(c *kernel.Context, pid uint32) (bool, error) {
	n, err := c.Load32(w.cnt)
	if err != nil {
		return false, err
	}
	for i := uint32(0); i < n; i++ {
		v, err := c.Load32(w.tab + hw.VAddr(4*i))
		if err != nil {
			return false, err
		}
		if v != pid {
			continue
		}
		for j := i + 1; j < n; j++ {
			s, err := c.Load32(w.tab + hw.VAddr(4*j))
			if err != nil {
				return false, err
			}
			if err := c.Store32(w.tab+hw.VAddr(4*(j-1)), s); err != nil {
				return false, err
			}
		}
		return true, c.Store32(w.cnt, n-1)
	}
	return false, nil
}

// pop removes and returns the oldest registered pid. Caller holds the
// guard.
func (w wtab) pop(c *kernel.Context) (uint32, bool, error) {
	n, err := c.Load32(w.cnt)
	if err != nil || n == 0 {
		return 0, false, err
	}
	pid, err := c.Load32(w.tab)
	if err != nil {
		return 0, false, err
	}
	for j := uint32(1); j < n; j++ {
		s, err := c.Load32(w.tab + hw.VAddr(4*j))
		if err != nil {
			return 0, false, err
		}
		if err := c.Store32(w.tab+hw.VAddr(4*(j-1)), s); err != nil {
			return 0, false, err
		}
	}
	return pid, true, c.Store32(w.cnt, n-1)
}

// size returns the registered-waiter count. Caller holds the guard.
func (w wtab) size(c *kernel.Context) (uint32, error) { return c.Load32(w.cnt) }

// ─── mutex ───────────────────────────────────────────────────────────────

// Mutex is a hybrid spin-then-block mutual-exclusion lock occupying
// MutexBytes of (usually shared) process memory. Layout, in words from
// VA:
//
//	+0   lock word: bit 0 held, bit 1 waiters registered
//	+4   waiter-table guard
//	+8   waiter count
//	+12… waiter pids (mutexMaxWaiters slots)
//
// The protocol: acquirers spin a bounded budget, then register their pid,
// publish the waiter bit with an interlocked update, and blockproc;
// release clears the held bit with a CAS that preserves the waiter bit,
// then pops and unblockprocs the oldest waiter. The waiter bit is retired
// only when the table is observed empty under the guard, so a concurrent
// registration can never be stranded bitless.
type Mutex struct {
	VA hw.VAddr
}

func (m Mutex) tab() wtab {
	return wtab{guard: m.VA + 4, cnt: m.VA + 8, tab: m.VA + 12, cap: mutexMaxWaiters}
}

// Init clears the lock word and waiter table.
func (m Mutex) Init(c *kernel.Context) error {
	for off := hw.VAddr(0); off < MutexBytes; off += 4 {
		if err := c.Store32(m.VA+off, 0); err != nil {
			return err
		}
	}
	return nil
}

// Lock acquires the mutex adaptively (paper §3: busy-waiting is only the
// fast path): an interlocked fast path, a bounded test-and-test-and-set
// spin of spinRounds rounds, then conversion to a blockproc sleep. It
// returns ErrIntr (EINTR) when a caught signal interrupts the wait, with
// any waiter registration withdrawn.
func (m Mutex) Lock(c *kernel.Context) error {
	ok, err := c.CAS32(m.VA, 0, lockHeld)
	if err != nil || ok {
		return err
	}
	free := func(v uint32) bool { return v&lockHeld == 0 }
	for r := 0; r < spinRounds; r++ {
		v, hit, err := c.SpinWaitBounded(m.VA, free, 1)
		if err != nil {
			return err
		}
		if !hit {
			continue
		}
		ok, err := c.CAS32(m.VA, v, v|lockHeld)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	c.NoteSpinToBlock()
	return m.lockBlocking(c)
}

// LockSpin acquires the mutex by pure busy-waiting — the paper's original
// §3 discipline, kept for the spin-only arm of the overcommit experiment
// (and as the fallback when the waiter table is full). Signal
// interruptible like every spin path.
func (m Mutex) LockSpin(c *kernel.Context) error {
	for {
		v, err := c.SpinWait32(m.VA, func(v uint32) bool { return v&lockHeld == 0 })
		if err != nil {
			return err
		}
		ok, err := c.CAS32(m.VA, v, v|lockHeld)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
}

// TryLock attempts one acquisition without waiting.
func (m Mutex) TryLock(c *kernel.Context) (bool, error) {
	v, err := c.Load32(m.VA)
	if err != nil || v&lockHeld != 0 {
		return false, err
	}
	return c.CAS32(m.VA, v, v|lockHeld)
}

// lockBlocking is the spin-to-block slow path: register, publish the
// waiter bit, sleep, retry. The registration/publication order matters —
// the waiter bit is only ever set by a registered waiter, and only ever
// retired when the table is empty, so release cannot miss a waiter.
func (m Mutex) lockBlocking(c *kernel.Context) error {
	w := m.tab()
	self := uint32(c.P.PID)
	registered := false
	for {
		if !registered {
			if err := w.lock(c); err != nil {
				return err
			}
			room, err := w.add(c, self)
			if uerr := w.unlock(c); err == nil {
				err = uerr
			}
			if err != nil {
				return err
			}
			if !room {
				// Table full: degrade to pure spinning.
				return m.LockSpin(c)
			}
			registered = true
		}
		v, err := c.Load32(m.VA)
		if err != nil {
			return m.abortLock(c, self, err)
		}
		switch {
		case v&lockHeld == 0:
			ok, err := c.CAS32(m.VA, v, v|lockHeld)
			if err != nil {
				return m.abortLock(c, self, err)
			}
			if ok {
				return m.deregister(c, self)
			}
		case v&lockWaiters == 0:
			// Publish the waiter bit so the holder's release takes the
			// wake path. Interlocked, so a racing release (which updates
			// the word by CAS too) cannot clobber it.
			if _, err := c.CAS32(m.VA, v, v|lockWaiters); err != nil {
				return m.abortLock(c, self, err)
			}
		default:
			if err := c.Blockproc(0); err != nil {
				return m.abortLock(c, self, err)
			}
			// Woken: the release popped us from the table before the
			// unblock, so re-register before sleeping again. A stale
			// banked wake (add finds us still present) is tolerated: the
			// loop re-checks the lock word before every sleep.
			registered = false
		}
	}
}

// deregister withdraws an acquirer that just took the lock, retiring the
// waiter bit when it was the last registered waiter.
func (m Mutex) deregister(c *kernel.Context, self uint32) error {
	w := m.tab()
	if err := w.lockCleanup(c); err != nil {
		return err
	}
	if _, err := w.remove(c, self); err != nil {
		w.unlock(c)
		return err
	}
	n, err := w.size(c)
	if err != nil {
		w.unlock(c)
		return err
	}
	if n == 0 {
		if err := m.clearWaiterBit(c); err != nil {
			w.unlock(c)
			return err
		}
	}
	return w.unlock(c)
}

// clearWaiterBit retires the waiter bit with an interlocked update.
// Caller holds the table guard with the table empty, so no registered
// waiter can be stranded: registration happens under the same guard, and
// the bit is only published by registered waiters.
func (m Mutex) clearWaiterBit(c *kernel.Context) error {
	for {
		v, err := c.Load32(m.VA)
		if err != nil {
			return err
		}
		if v&lockWaiters == 0 {
			return nil
		}
		ok, err := c.CAS32(m.VA, v, v&^lockWaiters)
		if err != nil || ok {
			return err
		}
	}
}

// abortLock withdraws a cancelled waiter (EINTR, fault) and passes any
// wake meant for it along to the next registered waiter, so a release's
// wakeup does not die with the interrupted process. A redundant wake is
// harmless — it banks on the target, whose sleep loop re-checks the lock
// word — but a lost one would strand a sleeper forever.
func (m Mutex) abortLock(c *kernel.Context, self uint32, cause error) error {
	w := m.tab()
	if err := w.lockCleanup(c); err != nil {
		return cause
	}
	if _, err := w.remove(c, self); err != nil {
		w.unlock(c)
		return cause
	}
	pid, ok, err := w.pop(c)
	if err != nil {
		w.unlock(c)
		return cause
	}
	if !ok {
		m.clearWaiterBit(c)
	}
	w.unlock(c)
	if ok {
		c.Unblockproc(int(pid)) // ESRCH (died while registered) is fine
	}
	return cause
}

// Unlock releases the mutex with an interlocked update that preserves
// the waiter bit — a plain store could clobber a bit published between
// the load and the store — and wakes the oldest registered waiter when
// the bit is set.
func (m Mutex) Unlock(c *kernel.Context) error {
	for {
		v, err := c.Load32(m.VA)
		if err != nil {
			return err
		}
		ok, err := c.CAS32(m.VA, v, v&^lockHeld)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if v&lockWaiters == 0 {
			return nil
		}
		return m.wakeOne(c)
	}
}

// wakeOne pops the oldest registered waiter and unblocks it, skipping
// pids that died while registered (ESRCH) and retiring the waiter bit if
// the table has drained (every waiter cancelled).
func (m Mutex) wakeOne(c *kernel.Context) error {
	w := m.tab()
	for {
		if err := w.lockCleanup(c); err != nil {
			return err
		}
		pid, ok, err := w.pop(c)
		if err != nil {
			w.unlock(c)
			return err
		}
		if !ok {
			err := m.clearWaiterBit(c)
			if uerr := w.unlock(c); err == nil {
				err = uerr
			}
			return err
		}
		if err := w.unlock(c); err != nil {
			return err
		}
		err = c.Unblockproc(int(pid))
		if err == nil || !errors.Is(err, kernel.ESRCH) {
			return err
		}
	}
}

// ─── barrier ─────────────────────────────────────────────────────────────

// Barrier is a sense-reversing barrier for N participants occupying
// BarrierBytes of shared memory. Layout, in words from VA:
//
//	+0   arrival count
//	+4   generation
//	+8   sleeper-table guard
//	+12  sleeper count
//	+16… sleeper pids (barrierMaxSleepers slots)
//
// Generation wraparound contract: the generation word is a free-running
// uint32, incremented once per completed episode and compared only for
// inequality against the value sampled at entry. Wraparound at 2^32 is
// therefore harmless as long as no waiter can sleep through 2^32
// consecutive episodes — guaranteed, because every episode requires all N
// members (the waiter included) to arrive.
type Barrier struct {
	VA hw.VAddr
	N  uint32
}

func (b Barrier) tab() wtab {
	return wtab{guard: b.VA + 8, cnt: b.VA + 12, tab: b.VA + 16, cap: barrierMaxSleepers}
}

// Init clears the barrier words and sleeper table.
func (b Barrier) Init(c *kernel.Context) error {
	for off := hw.VAddr(0); off < BarrierBytes; off += 4 {
		if err := c.Store32(b.VA+off, 0); err != nil {
			return err
		}
	}
	return nil
}

// Enter blocks until all N participants have arrived: a bounded spin on
// the generation word, then a blockproc sleep with the last arrival
// performing the unblockproc fan-out. Returns ErrZeroBarrier for N == 0
// and ErrIntr (EINTR) when a caught signal interrupts the wait.
func (b Barrier) Enter(c *kernel.Context) error {
	if b.N == 0 {
		return ErrZeroBarrier
	}
	gen, err := c.Load32(b.VA + 4)
	if err != nil {
		return err
	}
	n, err := c.Add32(b.VA, 1)
	if err != nil {
		return err
	}
	if n == b.N {
		// Last arrival: reset the count, advance the generation, wake
		// the sleepers.
		if err := c.Store32(b.VA, 0); err != nil {
			return err
		}
		if err := c.Store32(b.VA+4, gen+1); err != nil {
			return err
		}
		return b.wakeSleepers(c)
	}
	advanced := func(g uint32) bool { return g != gen }
	_, done, err := c.SpinWaitBounded(b.VA+4, advanced, spinRounds)
	if err != nil || done {
		return err
	}
	c.NoteSpinToBlock()
	return b.sleep(c, gen)
}

// sleep blocks a non-last arrival until the generation advances past gen.
// The generation is re-checked under the table guard before every sleep,
// so a release that raced ahead of the registration is never missed: the
// releaser advances the generation before taking the guard to pop.
func (b Barrier) sleep(c *kernel.Context, gen uint32) error {
	w := b.tab()
	self := uint32(c.P.PID)
	for {
		if err := w.lock(c); err != nil {
			return err
		}
		g, err := c.Load32(b.VA + 4)
		if err != nil {
			w.unlock(c)
			return err
		}
		if g != gen {
			// Released while (re-)registering: withdraw and go.
			_, rerr := w.remove(c, self)
			if uerr := w.unlock(c); rerr == nil {
				rerr = uerr
			}
			return rerr
		}
		room, err := w.add(c, self)
		if uerr := w.unlock(c); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		if !room {
			// Table full: spin out the rest of the wait.
			_, err := c.SpinWait32(b.VA+4, func(g uint32) bool { return g != gen })
			return err
		}
		if err := c.Blockproc(0); err != nil {
			return b.abortSleep(c, self, err)
		}
		// Woken: either this episode released (the loop exits on the
		// generation check) or the wake was a stale banked one —
		// re-register and sleep again.
	}
}

// abortSleep withdraws a cancelled sleeper. No wake hand-off is needed
// (unlike the mutex): the release fan-out wakes every registered sleeper
// individually, so no other sleeper's wake can be riding on this one.
func (b Barrier) abortSleep(c *kernel.Context, self uint32, cause error) error {
	w := b.tab()
	if err := w.lockCleanup(c); err != nil {
		return cause
	}
	w.remove(c, self)
	w.unlock(c)
	return cause
}

// wakeSleepers is the release fan-out: pop every registered sleeper and
// unblockproc each. Pids that died while registered (ESRCH) are skipped.
func (b Barrier) wakeSleepers(c *kernel.Context) error {
	w := b.tab()
	if err := w.lockCleanup(c); err != nil {
		return err
	}
	var pids []uint32
	for {
		pid, ok, err := w.pop(c)
		if err != nil {
			w.unlock(c)
			return err
		}
		if !ok {
			break
		}
		pids = append(pids, pid)
	}
	if err := w.unlock(c); err != nil {
		return err
	}
	for _, pid := range pids {
		if err := c.Unblockproc(int(pid)); err != nil && !errors.Is(err, kernel.ESRCH) {
			return err
		}
	}
	return nil
}

// ─── counter and word ────────────────────────────────────────────────────

// Counter is an atomic counter in shared memory (work-queue cursors, the
// self-scheduling primitive of paper §3).
type Counter struct {
	VA hw.VAddr
}

// Next claims and returns the next value (starting from 1).
func (ct Counter) Next(c *kernel.Context) (uint32, error) {
	return c.Add32(ct.VA, 1)
}

// Value reads the counter.
func (ct Counter) Value(c *kernel.Context) (uint32, error) {
	return c.Load32(ct.VA)
}

// Word is a shared signalling word: phase flags, readiness counts, and
// other one-word conditions programs busy-wait on. It exists so user
// programs never hand-roll raw Context.SpinWait32 loops (internal/lint
// enforces it): routing every user-level wait through uspin keeps the
// spin policy — signal interruption, the preemptible drip charge — in one
// place.
type Word struct {
	VA hw.VAddr
}

// Load reads the word.
func (w Word) Load(c *kernel.Context) (uint32, error) { return c.Load32(w.VA) }

// Store writes the word.
func (w Word) Store(c *kernel.Context, v uint32) error { return c.Store32(w.VA, v) }

// Add atomically adds delta, returning the new value.
func (w Word) Add(c *kernel.Context, delta uint32) (uint32, error) {
	return c.Add32(w.VA, delta)
}

// AwaitEq spins until the word equals v.
func (w Word) AwaitEq(c *kernel.Context, v uint32) error {
	_, err := c.SpinWait32(w.VA, func(x uint32) bool { return x == v })
	return err
}

// AwaitNe spins until the word differs from v, returning the new value.
func (w Word) AwaitNe(c *kernel.Context, v uint32) (uint32, error) {
	return c.SpinWait32(w.VA, func(x uint32) bool { return x != v })
}

// AwaitMin spins until the word is at least v, returning the value seen.
func (w Word) AwaitMin(c *kernel.Context, v uint32) (uint32, error) {
	return c.SpinWait32(w.VA, func(x uint32) bool { return x >= v })
}
