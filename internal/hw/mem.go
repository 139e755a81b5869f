// Package hw simulates the hardware substrate the paper's kernel runs on: a
// MIPS R2000-style shared-memory multiprocessor with per-CPU software-managed
// TLBs, a physical page-frame pool, and a cycle cost model.
//
// The simulation is faithful to the two hardware properties the share-group
// design actually depends on: the TLB is refilled and flushed entirely by
// kernel software (which makes the synchronous shootdown protocol of paper
// §6.2 possible), and memory words support atomic compare-and-swap (which
// makes user-level busy-wait synchronization possible).
package hw

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/percpu"
)

// Page geometry. 4 KiB pages, 32-bit virtual addresses, matching the R2000.
const (
	PageShift    = 12
	PageSize     = 1 << PageShift
	PageMask     = PageSize - 1
	WordsPerPage = PageSize / 4
)

// VAddr is a 32-bit virtual address.
type VAddr uint32

// PFN is a physical page frame number.
type PFN uint32

// NoPFN marks a page-table slot with no frame assigned (demand fill pending).
const NoPFN PFN = ^PFN(0)

// VPN returns the virtual page number of va.
func (va VAddr) VPN() uint32 { return uint32(va) >> PageShift }

// Offset returns the byte offset of va within its page.
func (va VAddr) Offset() uint32 { return uint32(va) & PageMask }

// The line map divides a frame into 64 lines of 64 bytes, one bit each.
const (
	lineShift      = 6 // log2 of a line's bytes
	lineWordsShift = lineShift - 2
	LineSize       = 1 << lineShift // bytes a line-map bit covers
	lineWords      = LineSize / 4
)

// line is the storage of one line of a frame.
type line [lineWords]uint32

// lineTable is a frame's storage: one slot per line, nil until the line is
// first marked. A line, once there, is never replaced while its frame
// lives, so a word's address is stable and no store can be lost to a move.
type lineTable [PageSize / LineSize]atomic.Pointer[line]

// spare holds line tables, every line in them all zero, that idle machines
// gave back (ReleaseFree) for any Memory's first mark of a frame to mint
// from. It is a sync.Pool so tables no boot claims go back to the heap
// within two collections.
var spare sync.Pool

// Frame-cache geometry: a CPU refills its cache with refillBatch frames at a
// time and gives half back to the pool when it accumulates more than
// cacheMax, so frames circulate instead of pooling on one processor.
const (
	refillBatch = 16
	cacheMax    = 2 * refillBatch
)

// frameCache is one CPU's private stock of free frames. Its lock is
// effectively uncontended — only that CPU's allocations and frees touch it,
// except for the rare scavenge pass when the pool runs dry.
type frameCache struct {
	mu   sync.Mutex
	free []PFN
	_    [64]byte // keep neighbouring caches off the same cache line
}

// frameMeta is one frame's record: everything of a frame but its words
// that an allocation, a free or an access reads or writes. It is 32 bytes,
// so a bank's records sit two to a cache line and none straddles one.
type frameMeta struct {
	data  atomic.Pointer[lineTable] // storage, nil until the first mark and once released
	owner atomic.Pointer[FrameAcct] // charging principal (nil = unowned)
	lines atomic.Uint64             // line map: bit i = line i exists and may hold a non-zero word
	refs  atomic.Int32              // reference count
}

// Record banks: take mints a frame's record with the bank of bankSize
// records that holds it, the first time it hands out a frame of that bank.
const (
	bankShift = 10
	bankSize  = 1 << bankShift
)

// frameBank is the records of bankSize consecutive frames.
type frameBank [bankSize]frameMeta

// framePool is the free stock behind the caches: a recycled free list plus
// the never-used frames [fresh, capacity).
type framePool struct {
	mu    sync.Mutex
	free  []PFN // recycled frames, already zeroed
	fresh int   // next never-used frame index
}

// Memory is the machine's physical memory: page frames with per-frame
// reference counts. Reference counts above one arise from copy-on-write
// duplication (paper §6.2): a frame is writable through a mapping only
// while its count is exactly one.
//
// The hot paths are deliberately lock-free or per-CPU: a frame's record
// (storage pointer, owner, line map, reference count) sits in a bank that
// take mints the first time it hands out a frame of that bank, and
// publishes before the frame leaves the pool, and storage is minted by CAS,
// so word access and IncRef/DecRef/Ref never take a lock; NewMemory makes
// only the bank directory. Allocation is served from per-CPU free-frame caches
// (AttachCaches) that refill from and drain to the one pool in batches.
// Only the batch refill/drain path takes the pool lock.
//
// A frame holds what was written to it, not the page, and zeroing and
// copying cost the same: every writer of frame storage marks the lines it
// covers in the frame's line map before it stores, and the first mark of a
// line mints it, so a marked line exists, an unmarked line is all zero,
// and a free frame is all zero with an empty map. A read of a line never
// minted returns zero without minting it.
//
// A frame's storage is a table of line slots minted at its first mark,
// from spare when it can be. A dying frame zeroes its marked lines and
// keeps them, so a frame reused for the same writes allocates nothing. A
// table is released only from the pool's free list by an idle machine
// (ReleaseFree), so it is always all zero when it passes between machines.
//
// Besides the frame's own record, one cache line, an allocation or a free
// writes only its CPU's words and the reservations, inUse and the charged
// account's used; a dying region's frames (DecRefs) write inUse and the
// pool once a batch, not once a frame. The statistics are per-CPU
// counters, and inUse, which every grant and release must agree on, has a
// cache line to itself, so its bouncing does not evict the bank
// directory's header every access reads. The pool, which every refill and
// drain writes, sits last, a line past the caches header and FI that every
// allocation reads.
type Memory struct {
	capacity int
	banks    []atomic.Pointer[frameBank] // bank i: frames [i*bankSize, (i+1)*bankSize); nil until take mints it

	_     [64]byte
	inUse atomic.Int64 // referenced frames (reservation counter)
	_     [64]byte

	caches []frameCache // per-CPU free-frame caches (nil before AttachCaches)

	// Statistics. Those an allocation, a free or a copy writes every time
	// are per-CPU counters; the ones below them are written once per batch,
	// or on paths that have no CPU, and stay single words.
	Allocs     percpu.Counter
	Frees      percpu.Counter
	Copies     percpu.Counter
	CacheHits  percpu.Counter // allocations served from a per-CPU cache
	Refills    atomic.Int64   // batch refills of a per-CPU cache from the pool
	Drains     atomic.Int64   // batch give-backs from a cache to the pool
	Scavenges  atomic.Int64   // frames reclaimed from other CPUs' caches
	PoolAllocs atomic.Int64   // allocations that went straight to the pool

	// Fault-path fill statistics (maintained by vm.FillOn; they live here
	// because Memory is the one object every region shares).
	FastFills percpu.Counter // resident faults resolved lock-free
	SlowFills percpu.Counter // faults that took a fill stripe (zero fill, COW, upgrade)

	// Lazy-duplication statistics (maintained by vm.DupLazy and the
	// first-touch materialization; here for the same reason as the fill
	// counters). Conservation: LazyDups == LazyBreaks + LazyDrops once a
	// creation storm has drained.
	LazyDups       atomic.Int64 // O(1) region clones created at spawn
	LazyBreaks     atomic.Int64 // clones materialized by a first touch
	LazyDrops      atomic.Int64 // clones that exited untouched (no walk ever)
	LazyBreakPages atomic.Int64 // page-table slots walked by materializations

	// Reclaim statistics (exhaustion degradation).
	Reclaims        atomic.Int64 // cache-drain-and-reclaim passes
	ReclaimedFrames atomic.Int64 // frames returned to the pool by reclaims

	// FI, when armed at SiteFrameAlloc, makes AllocOn exercise the
	// exhaustion path deterministically: a hit first drains the per-CPU
	// caches back to the pool (the reclaim fallback a real pageout daemon
	// would provide), and a fraction of hits still fail with ErrNoMemory.
	FI *faultinject.Plan

	_    [64]byte
	pool framePool
}

// NewMemory creates a physical memory of capacity page frames. It makes
// the bank directory alone: a frame's record is minted with its bank when
// the pool first hands out a frame of that bank, and its storage line by
// line as the lines are first written.
func NewMemory(capacity int) *Memory {
	if capacity <= 0 {
		panic("hw: memory capacity must be positive")
	}
	return &Memory{
		capacity: capacity,
		banks:    make([]atomic.Pointer[frameBank], (capacity+bankSize-1)>>bankShift),
	}
}

// meta returns pfn's record without taking any lock: take publishes a
// frame's bank atomically before the frame leaves the pool, and a bank is
// never taken back.
func (m *Memory) meta(pfn PFN) *frameMeta {
	return &m.banks[pfn>>bankShift].Load()[pfn&(bankSize-1)]
}

// AttachCaches equips the memory with ncpu per-CPU free-frame caches.
// AllocOn/DecRefOn calls with a CPU id in range are then served from the
// caller's cache; out-of-range ids (and the plain Alloc/DecRef forms) use
// the pool directly. It must be called before the first allocation, and
// panics after one: a frame already parked in a cache would be lost.
func (m *Memory) AttachCaches(ncpu int) {
	if m.pool.fresh > 0 {
		panic("hw: AttachCaches after allocation")
	}
	m.caches = make([]frameCache, ncpu)
}

// Capacity returns the total number of frames the memory can hold.
func (m *Memory) Capacity() int { return m.capacity }

// InUse returns the number of frames currently allocated (reference count
// above zero). Frames parked in per-CPU caches are free, not in use.
func (m *Memory) InUse() int { return int(m.inUse.Load()) }

// CachedFrames returns the number of free frames parked in per-CPU caches.
func (m *Memory) CachedFrames() int {
	n := 0
	for i := range m.caches {
		c := &m.caches[i]
		c.mu.Lock()
		n += len(c.free)
		c.mu.Unlock()
	}
	return n
}

// ErrNoMemory is returned when the frame pool is exhausted.
var ErrNoMemory = fmt.Errorf("hw: out of physical memory")

// cache returns cpu's frame cache, or nil when cpu has none.
func (m *Memory) cache(cpu int) *frameCache {
	if cpu < 0 || cpu >= len(m.caches) {
		return nil
	}
	return &m.caches[cpu]
}

// Alloc allocates a zeroed frame with reference count one from the pool
// (no CPU affinity).
func (m *Memory) Alloc() (PFN, error) { return m.AllocOn(-1) }

// AllocOn allocates a zeroed frame with reference count one, preferring
// cpu's free-frame cache and refilling it from the pool, without charging
// any frame account.
func (m *Memory) AllocOn(cpu int) (PFN, error) { return m.AllocFor(cpu, nil) }

// AllocFor is AllocOn charging the grant to acct (nil = unaccounted): the
// quota is reserved before the frame reservation so a refusal leaks
// nothing, the granted frame is tagged with acct, and the final DecRef
// uncharges it. A full account fails with ErrNoQuota without touching the
// pools. Frames are zeroed when freed, so no zeroing happens here and no
// lock is held while a frame's contents are cleared.
func (m *Memory) AllocFor(cpu int, acct *FrameAcct) (PFN, error) {
	if acct != nil && !acct.tryCharge(cpu) {
		return NoPFN, ErrNoQuota
	}
	uncharge := func() {
		if acct != nil {
			acct.uncharge(cpu)
		}
	}
	// Deterministic exhaustion, before the reservation so an injected
	// failure neither leaks an inUse reservation nor counts as an Alloc.
	if pl := m.FI; pl != nil {
		if hit, draw := pl.Decide(faultinject.SiteFrameAlloc, uint32(cpu+1)); hit {
			m.ReclaimCaches()
			if draw%4 == 0 {
				// A quarter of hits are hard failures that survive the
				// reclaim — the caller's ENOMEM path must cope.
				pl.Note(faultinject.SiteFrameAlloc, faultinject.FaultENOMEM, uint32(cpu+1))
				uncharge()
				return NoPFN, ErrNoMemory
			}
			pl.Note(faultinject.SiteFrameAlloc, faultinject.FaultReclaim, uint32(cpu+1))
		}
	}
	// Reserve one frame against capacity. The counter includes in-flight
	// reservations, so once the CAS succeeds a free frame is guaranteed to
	// exist somewhere (the pool's free list or fresh range, or a cache) for
	// every reserver.
	for {
		n := m.inUse.Load()
		if int(n) >= m.capacity {
			uncharge()
			return NoPFN, ErrNoMemory
		}
		if m.inUse.CompareAndSwap(n, n+1) {
			break
		}
	}
	m.Allocs.AddOn(cpu, 1)

	if c := m.cache(cpu); c != nil {
		c.mu.Lock()
		if n := len(c.free); n > 0 {
			pfn := c.free[n-1]
			c.free = c.free[:n-1]
			c.mu.Unlock()
			m.CacheHits.AddOn(cpu, 1)
			return m.grant(pfn, acct), nil
		}
		c.mu.Unlock()
		// Cache empty: refill a batch from the pool (keeping one frame for
		// the caller). No cache lock is held while the pool lock is taken.
		for {
			batch := m.take(refillBatch)
			if len(batch) == 0 {
				batch = m.scavenge(cpu, refillBatch/2)
			}
			if len(batch) > 0 {
				pfn := batch[0]
				if rest := batch[1:]; len(rest) > 0 {
					c.mu.Lock()
					c.free = append(c.free, rest...)
					c.mu.Unlock()
				}
				m.Refills.Add(1)
				return m.grant(pfn, acct), nil
			}
			// Every free frame is transiently in another allocator's hands;
			// our reservation guarantees one will surface.
			runtime.Gosched()
		}
	}

	// No cache: serve one frame straight from the pool.
	for {
		batch := m.take(1)
		if len(batch) == 0 {
			batch = m.scavenge(-1, 1)
		}
		if len(batch) > 0 {
			m.PoolAllocs.Add(1)
			return m.grant(batch[0], acct), nil
		}
		runtime.Gosched()
	}
}

// grant finalizes an allocation: reference count one, ownership tag. A mark
// on a free frame is a store through a translation that outlived its flush.
func (m *Memory) grant(pfn PFN, acct *FrameAcct) PFN {
	md := m.meta(pfn)
	if md.lines.Load() != 0 {
		panic(fmt.Sprintf("hw: frame %d was written while it was free", pfn))
	}
	md.refs.Store(1)
	md.owner.Store(acct)
	return pfn
}

// OwnerOf returns the frame account charged for pfn, or nil.
func (m *Memory) OwnerOf(pfn PFN) *FrameAcct { return m.meta(pfn).owner.Load() }

// take removes up to want free frames from the pool, never-used ones when
// the recycled list runs out, and mints the bank of records for each
// never-used one whose bank is not minted yet.
func (m *Memory) take(want int) []PFN {
	p := &m.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PFN
	if n := len(p.free); n > 0 {
		k := min(want, n)
		out = append(out, p.free[n-k:]...)
		p.free = p.free[:n-k]
	}
	for len(out) < want && p.fresh < m.capacity {
		out = append(out, PFN(p.fresh))
		p.fresh++
	}
	for _, pfn := range out {
		if b := &m.banks[pfn>>bankShift]; b.Load() == nil {
			b.Store(new(frameBank))
		}
	}
	return out
}

// ReleaseFree gives the storage of every frame on the pool's free list to
// spare, for the next first mark in this or any Memory. Only an idle
// machine calls it (System.WaitIdle): a pool frame is all zero with an
// empty map (grant checks it), no PTE names it, and only take hands it out
// again, under the same lock. Frames parked in caches keep theirs.
func (m *Memory) ReleaseFree() {
	p := &m.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pfn := range p.free {
		if t := m.meta(pfn).data.Swap(nil); t != nil {
			spare.Put(t)
		}
	}
}

// scavenge pulls up to want free frames out of another CPU's cache — the
// path of last resort when the pool is dry but cached frames exist. It
// never holds the pool lock or more than one cache lock at a time.
func (m *Memory) scavenge(cpu, want int) []PFN {
	for i := range m.caches {
		if i == cpu {
			continue
		}
		c := &m.caches[i]
		c.mu.Lock()
		n := len(c.free)
		k := min(want, n)
		out := append([]PFN(nil), c.free[n-k:]...)
		c.free = c.free[:n-k]
		c.mu.Unlock()
		if k > 0 {
			m.Scavenges.Add(int64(k))
			return out
		}
	}
	return nil
}

// ReclaimCaches drains every per-CPU free-frame cache back into the pool,
// returning how many frames moved. This is the memory-pressure degradation
// step: before the allocator reports ENOMEM it repatriates frames parked
// on idle CPUs so a genuinely free frame is never stranded. One cache lock
// is held at a time, then the pool lock once.
func (m *Memory) ReclaimCaches() int {
	var drained []PFN
	for i := range m.caches {
		c := &m.caches[i]
		c.mu.Lock()
		if len(c.free) > 0 {
			drained = append(drained, c.free...)
			c.free = c.free[:0]
		}
		c.mu.Unlock()
	}
	if len(drained) > 0 {
		m.releaseToPool(drained)
		m.ReclaimedFrames.Add(int64(len(drained)))
	}
	m.Reclaims.Add(1)
	return len(drained)
}

// releaseToPool returns frames to the pool.
func (m *Memory) releaseToPool(frames []PFN) {
	m.pool.mu.Lock()
	m.pool.free = append(m.pool.free, frames...)
	m.pool.mu.Unlock()
}

// IncRef increments the reference count of pfn (copy-on-write duplication).
func (m *Memory) IncRef(pfn PFN) {
	if m.meta(pfn).refs.Add(1) <= 1 {
		panic("hw: IncRef on free frame")
	}
}

// DecRefOn decrements the reference count of pfn and returns the count
// left. A frame that dies is zeroed outside any lock and parked in cpu's
// cache for reuse, draining a batch back to the pool when the cache
// overfills; with no cache (cpu < 0) it goes straight back to the pool.
func (m *Memory) DecRefOn(pfn PFN, cpu int) int32 {
	if n := m.unref(pfn, cpu); n > 0 {
		return n
	}
	m.Frees.AddOn(cpu, 1)
	m.inUse.Add(-1)

	if c := m.cache(cpu); c != nil {
		c.mu.Lock()
		c.free = append(c.free, pfn)
		var spill []PFN
		if len(c.free) > cacheMax {
			h := len(c.free) - refillBatch
			spill = append([]PFN(nil), c.free[h:]...)
			c.free = c.free[:h]
		}
		c.mu.Unlock()
		if spill != nil {
			m.releaseToPool(spill)
			m.Drains.Add(1)
		}
		return 0
	}
	m.releaseToPool([]PFN{pfn})
	return 0
}

// DecRefs is DecRefOn(pfn, -1) on each frame of pfns in turn, except that
// the frames that die go back to the pool together, in pfns' order: one
// inUse update and one pool hold for the call. It collects them in pfns' own array.
func (m *Memory) DecRefs(pfns []PFN) {
	dead := pfns[:0]
	for _, pfn := range pfns {
		if m.unref(pfn, -1) == 0 {
			dead = append(dead, pfn)
		}
	}
	if len(dead) > 0 {
		m.Frees.AddOn(-1, int64(len(dead)))
		m.inUse.Add(-int64(len(dead)))
		m.releaseToPool(dead)
	}
}

// unref drops one reference to pfn and returns the count left. At zero the
// frame is dead: its owning account is uncharged (whoever releases it), and
// what was written to it is zeroed now, outside every lock, so the next
// Alloc pays nothing and no other CPU stalls behind the clear. Nobody can
// name a dead frame, so nobody marks it between the swap and the clear: it
// goes back all zero with an empty map, keeping its lines for its next
// writer.
func (m *Memory) unref(pfn PFN, cpu int) int32 {
	md := m.meta(pfn)
	n := md.refs.Add(-1)
	if n < 0 {
		panic("hw: DecRef on free frame")
	}
	if n > 0 {
		return n
	}
	if acct := md.owner.Swap(nil); acct != nil {
		acct.uncharge(cpu)
	}
	if lm := md.lines.Swap(0); lm != 0 {
		clearLines(md.data.Load(), lm)
	}
	return 0
}

// clearLines zeroes the lines of t that lm names, with plain stores, for a
// frame nobody else can store to; every line lm names exists.
func clearLines(t *lineTable, lm uint64) {
	for ; lm != 0; lm &= lm - 1 {
		clear(t[bits.TrailingZeros64(lm)].Load()[:])
	}
}

// Ref returns the current reference count of pfn.
func (m *Memory) Ref(pfn PFN) int32 { return m.meta(pfn).refs.Load() }

// mark sets mask's bits in the frame's line map, minting first the
// storage of each line it names that the frame lacks. Every writer of
// frame storage calls it before its first store, so whoever can see a
// written word can see its line's mark. A line stays marked until the
// frame dies, so the steady state is the load and the test.
func (md *frameMeta) mark(mask uint64) {
	if md.lines.Load()&mask != mask {
		md.mint(mask)
	}
}

// mint is mark's path for a line not yet marked: it makes the frame's
// table if it has none, and each line of mask the table lacks, before it
// sets their bits, so a set bit means the line exists. Racing minters
// agree by CAS on nil: a loser drops its copy (a table back to spare) and
// uses the winner's, so a line is never replaced while the frame lives and
// word access needs no lock.
func (md *frameMeta) mint(mask uint64) {
	t := md.data.Load()
	if t == nil {
		nt, _ := spare.Get().(*lineTable)
		if nt == nil {
			nt = new(lineTable)
		}
		if md.data.CompareAndSwap(nil, nt) {
			t = nt
		} else {
			spare.Put(nt)
			t = md.data.Load()
		}
	}
	l := &md.lines
	for need := mask &^ l.Load(); need != 0; need &= need - 1 {
		if s := &t[bits.TrailingZeros64(need)]; s.Load() == nil {
			s.CompareAndSwap(nil, new(line))
		}
	}
	for old := l.Load(); old&mask != mask && !l.CompareAndSwap(old, old|mask); old = l.Load() {
	}
}

// word returns the storage of a word of a line that exists.
func (t *lineTable) word(w uint32) *uint32 {
	return &t[w>>lineWordsShift].Load()[w&(lineWords-1)]
}

// wordLine is the line-map bit of the line holding the given word.
func wordLine(word uint32) uint64 { return 1 << (word >> lineWordsShift) }

// byteLines is the line-map bits of the lines bytes [off, off+n) touch,
// for a non-empty range inside one page.
func byteLines(off, n uint32) uint64 {
	first, last := off>>lineShift, (off+n-1)>>lineShift
	return ^uint64(0) >> (63 - (last - first)) << first
}

// CopyFrameOn allocates a new frame from cpu's frame cache holding a copy
// of src (the copy-on-write copy path) and returns it with reference count
// one.
func (m *Memory) CopyFrameOn(src PFN, cpu int) (PFN, error) {
	return m.CopyFrameFor(src, cpu, nil)
}

// CopyFrameFor is CopyFrameOn charging the new frame to acct.
func (m *Memory) CopyFrameFor(src PFN, cpu int, acct *FrameAcct) (PFN, error) {
	dst, err := m.AllocFor(cpu, acct)
	if err != nil {
		return NoPFN, err
	}
	// The source is live (other mappings may be storing to it), so its
	// words are loaded atomically; the destination is private until the
	// caller publishes it through a PTE store, so plain stores suffice —
	// the same ownership rule DecRefOn's clear() relies on for dead frames.
	// Only the lines marked in the source can differ from the all-zero
	// frame just granted. A line first marked after the snapshot is a store
	// ordered after the copy, as one that lands behind the cursor is.
	sm, dm := m.meta(src), m.meta(dst)
	if lm := sm.lines.Load(); lm != 0 {
		dm.mark(lm)
		s, d := sm.data.Load(), dm.data.Load()
		for ; lm != 0; lm &= lm - 1 {
			i := bits.TrailingZeros64(lm)
			copyLine(d[i].Load(), s[i].Load())
		}
	}
	m.Copies.AddOn(cpu, 1)
	return dst, nil
}

// copyLine copies s into d, loading s's words atomically and storing d's
// plainly, four words a turn: one word a turn ran a dense frame's copy at
// half the speed.
func copyLine(d, s *line) {
	for j := 0; j <= lineWords-4; j += 4 {
		a, b, c, e := atomic.LoadUint32(&s[j]), atomic.LoadUint32(&s[j+1]), atomic.LoadUint32(&s[j+2]), atomic.LoadUint32(&s[j+3])
		d[j], d[j+1], d[j+2], d[j+3] = a, b, c, e
	}
}

// FillFrame makes pfn hold the page whose packed form (ReadFrame's) is
// (lines, packed), with plain stores under the ownership rule above: the
// caller allocated pfn and no PTE names it yet, so the PTE store that
// follows publishes the bytes (a published frame takes WriteFrame). The
// mask's lines are marked and stored whole; a line marked outside the mask
// is cleared, and every other line is zero already.
func (m *Memory) FillFrame(pfn PFN, lines uint64, packed []byte) {
	md := m.meta(pfn)
	if stale := md.lines.Load() &^ lines; stale != 0 {
		clearLines(md.data.Load(), stale)
	}
	md.mark(lines)
	t := md.data.Load()
	for lm := lines; lm != 0; lm &= lm - 1 {
		fillLine(t[bits.TrailingZeros64(lm)].Load(), (*[LineSize]byte)(packed))
		packed = packed[LineSize:]
	}
}

// WriteFrame is FillFrame for a published frame the caller owns: the
// mask's lines are marked and stored whole with atomic stores, and a line
// marked outside the mask gets atomic zero stores; no other line is stored
// to or marked.
func (m *Memory) WriteFrame(pfn PFN, lines uint64, packed []byte) {
	md := m.meta(pfn)
	if stale := md.lines.Load() &^ lines; stale != 0 {
		t := md.data.Load()
		for ; stale != 0; stale &= stale - 1 {
			l := t[bits.TrailingZeros64(stale)].Load()
			for i := range l {
				atomic.StoreUint32(&l[i], 0)
			}
		}
	}
	md.mark(lines)
	t := md.data.Load()
	for lm := lines; lm != 0; lm &= lm - 1 {
		writeLine(t[bits.TrailingZeros64(lm)].Load(), 0, packed[:LineSize])
		packed = packed[LineSize:]
	}
}

// fillLine stores s into l with plain stores, two words a turn.
func fillLine(l *line, s *[LineSize]byte) {
	for i := 0; i < lineWords; i += 2 {
		v := binary.LittleEndian.Uint64(s[i<<2:])
		l[i], l[i+1] = uint32(v), uint32(v>>32)
	}
}

// FrameZero reports whether every word of pfn is currently zero (the
// quota-reclaim scan uses it to find pages that can be dropped losslessly).
// Only marked lines can hold anything else.
func (m *Memory) FrameZero(pfn PFN) bool {
	md := m.meta(pfn)
	lm := md.lines.Load() // before the table: a marked line's table exists
	t := md.data.Load()
	for ; lm != 0; lm &= lm - 1 {
		l := t[bits.TrailingZeros64(lm)].Load()
		for i := range l {
			if atomic.LoadUint32(&l[i]) != 0 {
				return false
			}
		}
	}
	return true
}

// LoadWord atomically loads the 32-bit word at the given word offset of
// pfn; a word of a line never minted is zero.
func (m *Memory) LoadWord(pfn PFN, word uint32) uint32 {
	if t := m.meta(pfn).data.Load(); t != nil {
		if l := t[word>>lineWordsShift].Load(); l != nil {
			return atomic.LoadUint32(&l[word&(lineWords-1)])
		}
	}
	return 0
}

// StoreWord atomically stores v at the given word offset of pfn.
func (m *Memory) StoreWord(pfn PFN, word uint32, v uint32) {
	md := m.meta(pfn)
	md.mark(wordLine(word))
	atomic.StoreUint32(md.data.Load().word(word), v)
}

// CASWord performs an atomic compare-and-swap on a word of pfn. This models
// the hardware interlocked operation that user-level spinlocks are built on
// (paper §3: "some form of hardware supported lock is usually best").
func (m *Memory) CASWord(pfn PFN, word uint32, old, new uint32) bool {
	md := m.meta(pfn)
	md.mark(wordLine(word))
	return atomic.CompareAndSwapUint32(md.data.Load().word(word), old, new)
}

// AddWord atomically adds delta to a word of pfn and returns the new value.
func (m *Memory) AddWord(pfn PFN, word uint32, delta uint32) uint32 {
	md := m.meta(pfn)
	md.mark(wordLine(word))
	return atomic.AddUint32(md.data.Load().word(word), delta)
}

// ReadBytes copies len(dst) bytes from pfn starting at byte offset off, one
// atomic word load per word touched (bytes sit little-endian in their word);
// a line never minted reads zero. The range must lie within one page.
func (m *Memory) ReadBytes(pfn PFN, off uint32, dst []byte) {
	if int(off)+len(dst) > PageSize {
		panic("hw: ReadBytes crosses page boundary")
	}
	t := m.meta(pfn).data.Load()
	for len(dst) > 0 {
		sub := off & (LineSize - 1)
		n := min(len(dst), int(LineSize-sub))
		var l *line
		if t != nil {
			l = t[off>>lineShift].Load()
		}
		if l == nil {
			clear(dst[:n])
		} else {
			readLine(l, sub, dst[:n])
		}
		dst, off = dst[n:], off+uint32(n)
	}
}

// readLine is ReadBytes within one line, from byte off of l.
func readLine(l *line, off uint32, dst []byte) {
	w := off >> 2
	if sub := off & 3; sub != 0 && len(dst) > 0 {
		n := min(int(4-sub), len(dst))
		putLowBytes(dst[:n], atomic.LoadUint32(&l[w])>>(sub*8))
		dst = dst[n:]
		w++
	}
	// The line is cut to the word count once and the body moves two words
	// a turn, so it runs without a bounds check per word.
	n := uint32(len(dst) >> 2)
	s := l[w : w+n]
	for ; len(s) >= 2 && len(dst) >= 8; s, dst = s[2:], dst[8:] {
		binary.LittleEndian.PutUint32(dst, atomic.LoadUint32(&s[0]))
		binary.LittleEndian.PutUint32(dst[4:], atomic.LoadUint32(&s[1]))
	}
	if len(s) > 0 && len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, atomic.LoadUint32(&s[0]))
		dst = dst[4:]
	}
	if len(dst) > 0 {
		putLowBytes(dst, atomic.LoadUint32(&l[w+n]))
	}
}

// ReadFrame appends the lines of pfn that hold a non-zero byte to dst, in
// order, and returns their mask with the longer slice: the page's packed
// form. Marked lines are read with ReadBytes's atomic loads and a marked
// line that reads all zero is dropped, so equal contents read to equal
// forms whatever the maps hold. A line first marked after the map is
// loaded is a store ordered after the read, as in CopyFrameFor.
func (m *Memory) ReadFrame(pfn PFN, dst []byte) (uint64, []byte) {
	md := m.meta(pfn)
	lm := md.lines.Load()
	t := md.data.Load()
	var lines uint64
	for ; lm != 0; lm &= lm - 1 {
		i := bits.TrailingZeros64(lm)
		at := len(dst)
		dst = slices.Grow(dst, LineSize)[:at+LineSize]
		readLine(t[i].Load(), 0, dst[at:])
		if zeroLine((*[LineSize]byte)(dst[at:])) {
			dst = dst[:at]
			continue
		}
		lines |= 1 << i
	}
	return lines, dst
}

// zeroLine reports whether every byte of l is zero: the first eight bytes
// alone, then the other 56 at once, so a dense line costs one load.
func zeroLine(l *[LineSize]byte) bool {
	le := binary.LittleEndian
	return le.Uint64(l[0:]) == 0 && le.Uint64(l[8:])|le.Uint64(l[16:])|le.Uint64(l[24:])|
		le.Uint64(l[32:])|le.Uint64(l[40:])|le.Uint64(l[48:])|le.Uint64(l[56:]) == 0
}

// Lines returns pfn's line map: bit i set = line i may be non-zero.
func (m *Memory) Lines(pfn PFN) uint64 { return m.meta(pfn).lines.Load() }

// putLowBytes fills dst (shorter than a word) from v's low bytes upward.
func putLowBytes(dst []byte, v uint32) {
	for i := range dst {
		dst[i] = byte(v >> (i * 8))
	}
}

// WriteBytes copies src into pfn starting at byte offset off: one atomic
// word store per fully covered word, and a CAS byte-merge for the partial
// word at an unaligned head or tail, whose other bytes a concurrent writer
// may own. The range must lie within one page.
func (m *Memory) WriteBytes(pfn PFN, off uint32, src []byte) {
	if int(off)+len(src) > PageSize {
		panic("hw: WriteBytes crosses page boundary")
	}
	if len(src) == 0 {
		return
	}
	md := m.meta(pfn)
	md.mark(byteLines(off, uint32(len(src))))
	t := md.data.Load()
	for len(src) > 0 {
		sub := off & (LineSize - 1)
		n := min(len(src), int(LineSize-sub))
		writeLine(t[off>>lineShift].Load(), sub, src[:n])
		src, off = src[n:], off+uint32(n)
	}
}

// writeLine is WriteBytes within one line, from byte off of l.
func writeLine(l *line, off uint32, src []byte) {
	w := off >> 2
	if sub := off & 3; sub != 0 {
		n := min(int(4-sub), len(src))
		mergeBytes(&l[w], sub, src[:n])
		src = src[n:]
		w++
	}
	for ; len(src) >= 4; src = src[4:] {
		atomic.StoreUint32(&l[w], binary.LittleEndian.Uint32(src))
		w++
	}
	if len(src) > 0 {
		mergeBytes(&l[w], 0, src)
	}
}

// mergeBytes atomically replaces the len(b) (< 4) bytes of *word starting at
// byte sub, leaving the word's other bytes as whoever wrote them last.
func mergeBytes(word *uint32, sub uint32, b []byte) {
	var mask, val uint32
	for i, c := range b {
		shift := (sub + uint32(i)) * 8
		mask |= 0xff << shift
		val |= uint32(c) << shift
	}
	for {
		old := atomic.LoadUint32(word)
		if atomic.CompareAndSwapUint32(word, old, old&^mask|val) {
			return
		}
	}
}
