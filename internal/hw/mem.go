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

// PageBase returns the address of the first byte of va's page.
func (va VAddr) PageBase() VAddr { return va &^ VAddr(PageMask) }

// frameArray is the word storage of one page frame.
type frameArray [WordsPerPage]uint32

// The line map divides a frame into 64 lines of 64 bytes, one bit each.
const (
	lineShift      = 6 // log2 of a line's bytes
	lineWordsShift = lineShift - 2
)

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
// The hot paths are deliberately lock-free or per-CPU: the frame and
// refcount tables are preallocated at NewMemory so word access and
// IncRef/DecRef/Ref never take a lock, and allocation is served from
// per-CPU free-frame caches (AttachCaches) that refill from and drain to
// the one pool in batches. Only the batch refill/drain path takes the pool
// lock.
//
// Zeroing and copying cost what was written, not the page: every writer of
// frame storage marks the lines it covers in the frame's line map before it
// stores, so an unmarked line is all zero, and a free frame is all zero with
// an empty map.
//
// Besides the frame's own words (count, line map, owner), an allocation or
// a free writes only its CPU's words and the reservations, inUse and the
// charged account's used: the statistics are per-CPU counters, and inUse,
// which every grant and release must agree on, has a cache line to itself,
// so its bouncing does not evict the table headers every access reads. The
// pool, which every refill and drain writes, sits last, a line past the
// caches header and FI that every allocation reads.
type Memory struct {
	capacity int
	frames   []atomic.Pointer[frameArray] // frame storage, published once per frame
	refs     []atomic.Int32               // per-frame reference counts
	lines    []atomic.Uint64              // per-frame line map: bit i = line i may hold a non-zero word
	owners   []atomic.Pointer[FrameAcct]  // charging principal per frame (nil = unowned)

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

// NewMemory creates a physical memory of capacity page frames. Frame
// storage itself is allocated on demand, but the frame and refcount tables
// are preallocated so lookups never need the pool lock.
func NewMemory(capacity int) *Memory {
	if capacity <= 0 {
		panic("hw: memory capacity must be positive")
	}
	return &Memory{
		capacity: capacity,
		frames:   make([]atomic.Pointer[frameArray], capacity),
		refs:     make([]atomic.Int32, capacity),
		lines:    make([]atomic.Uint64, capacity),
		owners:   make([]atomic.Pointer[FrameAcct], capacity),
	}
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
	if m.lines[pfn].Load() != 0 {
		panic(fmt.Sprintf("hw: frame %d was written while it was free", pfn))
	}
	m.refs[pfn].Store(1)
	m.owners[pfn].Store(acct)
	return pfn
}

// OwnerOf returns the frame account charged for pfn, or nil.
func (m *Memory) OwnerOf(pfn PFN) *FrameAcct { return m.owners[pfn].Load() }

// take removes up to want free frames from the pool, minting storage for
// never-used frames when the recycled list runs out.
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
		pfn := PFN(p.fresh)
		p.fresh++
		m.frames[pfn].Store(new(frameArray))
		out = append(out, pfn)
	}
	return out
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
	if m.refs[pfn].Add(1) <= 1 {
		panic("hw: IncRef on free frame")
	}
}

// DecRef decrements the reference count of pfn, releasing the frame to the
// pool when it reaches zero. It returns the remaining count.
func (m *Memory) DecRef(pfn PFN) int32 { return m.DecRefOn(pfn, -1) }

// DecRefOn is DecRef with CPU affinity: a frame that dies is zeroed outside
// any lock and parked in cpu's cache for reuse, draining a batch back to
// the pool when the cache overfills.
func (m *Memory) DecRefOn(pfn PFN, cpu int) int32 {
	n := m.refs[pfn].Add(-1)
	if n < 0 {
		panic("hw: DecRef on free frame")
	}
	if n > 0 {
		return n
	}
	// Frame is dead: uncharge its owning account (whoever releases it),
	// then zero what was written to it now, outside every lock, so the next
	// Alloc pays nothing and no other CPU stalls behind the clear. Nobody
	// can name a dead frame, so nobody marks it between the swap and the
	// clear: it goes back all zero with an empty map.
	if acct := m.owners[pfn].Swap(nil); acct != nil {
		acct.uncharge(cpu)
	}
	f := m.frame(pfn)
	for lm := m.lines[pfn].Swap(0); lm != 0; {
		var lo, hi int
		lo, hi, lm = nextRun(lm)
		clear(f[lo:hi])
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

// Ref returns the current reference count of pfn.
func (m *Memory) Ref(pfn PFN) int32 { return m.refs[pfn].Load() }

// frame returns the word slice backing pfn without taking any lock: the
// storage pointer is published atomically exactly once, when the frame is
// first minted, and frames are never reallocated.
func (m *Memory) frame(pfn PFN) []uint32 {
	return m.frames[pfn].Load()[:]
}

// mark sets mask's bits in pfn's line map. Every writer of frame storage
// calls it before its first store, so whoever can see a written word can
// see its line's mark. A line stays marked until the frame dies, so the
// steady state is the load and the test.
func (m *Memory) mark(pfn PFN, mask uint64) {
	l := &m.lines[pfn]
	for {
		old := l.Load()
		if old&mask == mask || l.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// wordLine is the line-map bit of the line holding the given word.
func wordLine(word uint32) uint64 { return 1 << (word >> lineWordsShift) }

// byteLines is the line-map bits of the lines bytes [off, off+n) touch,
// for a non-empty range inside one page.
func byteLines(off, n uint32) uint64 {
	first, last := off>>lineShift, (off+n-1)>>lineShift
	return ^uint64(0) >> (63 - (last - first)) << first
}

// nextRun splits the lowest run of adjacent marked lines off a non-empty
// line map and returns the word range [lo, hi) it covers, so a fully
// written frame is one run.
func nextRun(lm uint64) (lo, hi int, rest uint64) {
	first := bits.TrailingZeros64(lm)
	n := bits.TrailingZeros64(^(lm >> first))
	return first << lineWordsShift, (first + n) << lineWordsShift, lm &^ ((1<<n - 1) << first)
}

// CopyFrame allocates a new frame holding a copy of src (the copy-on-write
// copy path) and returns it with reference count one.
func (m *Memory) CopyFrame(src PFN) (PFN, error) { return m.CopyFrameOn(src, -1) }

// CopyFrameOn is CopyFrame allocating from cpu's frame cache.
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
	lm := m.lines[src].Load()
	m.lines[dst].Store(lm)
	s, d := m.frame(src), m.frame(dst)
	for lm != 0 {
		var lo, hi int
		lo, hi, lm = nextRun(lm)
		sw, dw := s[lo:hi], d[lo:hi]
		for i := range sw {
			dw[i] = atomic.LoadUint32(&sw[i])
		}
	}
	m.Copies.AddOn(cpu, 1)
	return dst, nil
}

// FillFrame stores src (at most one page) into pfn from byte 0 with plain
// word stores, under the ownership rule above: the caller allocated pfn and
// has not yet stored it into a PTE, so no other CPU can name the frame and
// the PTE store that follows is what publishes the bytes. A published
// frame is written with WriteBytes. Bytes past len(src) keep their value.
func (m *Memory) FillFrame(pfn PFN, src []byte) {
	if len(src) > PageSize {
		panic("hw: FillFrame crosses page boundary")
	}
	if len(src) == 0 {
		return
	}
	m.mark(pfn, byteLines(0, uint32(len(src))))
	// Two words a turn, both sides cut to the pair count, so the body runs
	// without bounds checks; at most seven bytes are left for the tail.
	f := m.frame(pfn)
	n := len(src) >> 3
	tail := src[n<<3:]
	for d := f[:2*n]; len(d) >= 2 && len(src) >= 8; d, src = d[2:], src[8:] {
		v := binary.LittleEndian.Uint64(src)
		d[0], d[1] = uint32(v), uint32(v>>32)
	}
	for i, c := range tail {
		w, shift := 2*n+i>>2, uint(i&3)*8
		f[w] = f[w]&^(0xff<<shift) | uint32(c)<<shift
	}
}

// FrameZero reports whether every word of pfn is currently zero (the
// quota-reclaim scan uses it to find pages that can be dropped losslessly).
// Only marked lines can hold anything else.
func (m *Memory) FrameZero(pfn PFN) bool {
	f := m.frame(pfn)
	for lm := m.lines[pfn].Load(); lm != 0; {
		var lo, hi int
		lo, hi, lm = nextRun(lm)
		for i := lo; i < hi; i++ {
			if atomic.LoadUint32(&f[i]) != 0 {
				return false
			}
		}
	}
	return true
}

// LoadWord atomically loads the 32-bit word at the given word offset of pfn.
func (m *Memory) LoadWord(pfn PFN, word uint32) uint32 {
	return atomic.LoadUint32(&m.frame(pfn)[word])
}

// StoreWord atomically stores v at the given word offset of pfn.
func (m *Memory) StoreWord(pfn PFN, word uint32, v uint32) {
	m.mark(pfn, wordLine(word))
	atomic.StoreUint32(&m.frame(pfn)[word], v)
}

// CASWord performs an atomic compare-and-swap on a word of pfn. This models
// the hardware interlocked operation that user-level spinlocks are built on
// (paper §3: "some form of hardware supported lock is usually best").
func (m *Memory) CASWord(pfn PFN, word uint32, old, new uint32) bool {
	m.mark(pfn, wordLine(word))
	return atomic.CompareAndSwapUint32(&m.frame(pfn)[word], old, new)
}

// AddWord atomically adds delta to a word of pfn and returns the new value.
func (m *Memory) AddWord(pfn PFN, word uint32, delta uint32) uint32 {
	m.mark(pfn, wordLine(word))
	return atomic.AddUint32(&m.frame(pfn)[word], delta)
}

// ReadBytes copies len(dst) bytes from pfn starting at byte offset off, one
// atomic word load per word touched (bytes sit little-endian in their word).
// The range must lie within one page.
func (m *Memory) ReadBytes(pfn PFN, off uint32, dst []byte) {
	if int(off)+len(dst) > PageSize {
		panic("hw: ReadBytes crosses page boundary")
	}
	f := m.frame(pfn)
	w := off >> 2
	if sub := off & 3; sub != 0 && len(dst) > 0 {
		n := min(int(4-sub), len(dst))
		putLowBytes(dst[:n], atomic.LoadUint32(&f[w])>>(sub*8))
		dst = dst[n:]
		w++
	}
	// The frame is cut to the word count once and the body moves two words
	// a turn, so it runs without a bounds check per word.
	n := uint32(len(dst) >> 2)
	s := f[w : w+n]
	for ; len(s) >= 2 && len(dst) >= 8; s, dst = s[2:], dst[8:] {
		binary.LittleEndian.PutUint32(dst, atomic.LoadUint32(&s[0]))
		binary.LittleEndian.PutUint32(dst[4:], atomic.LoadUint32(&s[1]))
	}
	if len(s) > 0 && len(dst) >= 4 {
		binary.LittleEndian.PutUint32(dst, atomic.LoadUint32(&s[0]))
		dst = dst[4:]
	}
	if len(dst) > 0 {
		putLowBytes(dst, atomic.LoadUint32(&f[w+n]))
	}
}

// ReadFrame copies all of pfn into dst, which must be one page long: the
// read-side twin of CopyFrameFor's line walk. Marked runs are copied with
// ReadBytes's atomic word loads, and the bytes of unmarked lines, which are
// all zero, are cleared in dst. A line first marked after the map is loaded
// is a store ordered after the read, as in CopyFrameFor.
func (m *Memory) ReadFrame(pfn PFN, dst []byte) {
	if len(dst) != PageSize {
		panic("hw: ReadFrame wants a whole page")
	}
	done := 0 // dst[:done] is written
	for lm := m.lines[pfn].Load(); lm != 0; {
		var lo, hi int
		lo, hi, lm = nextRun(lm)
		clear(dst[done : lo<<2])
		m.ReadBytes(pfn, uint32(lo<<2), dst[lo<<2:hi<<2])
		done = hi << 2
	}
	clear(dst[done:])
}

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
	m.mark(pfn, byteLines(off, uint32(len(src))))
	f := m.frame(pfn)
	w := off >> 2
	if sub := off & 3; sub != 0 {
		n := min(int(4-sub), len(src))
		mergeBytes(&f[w], sub, src[:n])
		src = src[n:]
		w++
	}
	for ; len(src) >= 4; src = src[4:] {
		atomic.StoreUint32(&f[w], binary.LittleEndian.Uint32(src))
		w++
	}
	if len(src) > 0 {
		mergeBytes(&f[w], 0, src)
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
