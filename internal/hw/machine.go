package hw

import (
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// Cost names one entry of the cycle cost table. Every kernel and memory
// operation charges the CPU it runs on through one (CPU.Charge), so each
// simulated cycle is an entry's price times a count, and the CPU keeps the
// count. Only this package mints a Cost: a charge cannot name a number that
// is not in the table.
type Cost struct{ i uint8 }

// The cost table. Its prices are scaled from the R2000 era (roughly 16 MHz,
// cache-less memory at a few cycles per access); only the ratios matter for
// reproducing the paper's shapes.
var (
	MemAccess     = entry("MemAccess", 1)        // one user load/store that hits the TLB
	TLBRefill     = entry("TLBRefill", 20)       // software TLB refill (fast path, no fault)
	PageFault     = entry("PageFault", 500)      // full fault: trap, pregion scan, validate
	PageZero      = entry("PageZero", 1024)      // demand zero-fill of one page
	PageCopy      = entry("PageCopy", 2048)      // copy-on-write copy of one page
	SyscallEntry  = entry("SyscallEntry", 100)   // trap into the kernel
	SyscallExit   = entry("SyscallExit", 60)     // return to user mode
	ContextSwitch = entry("ContextSwitch", 1000) // dispatch a different process on a CPU
	IPI           = entry("IPI", 400)            // one inter-processor interrupt (TLB shootdown)
	SemaSleep     = entry("SemaSleep", 300)      // block on a kernel semaphore
	ProcCreate    = entry("ProcCreate", 4000)    // proc-table entry, u-area, kernel stack
	ThreadCreate  = entry("ThreadCreate", 800)   // Mach baseline: kernel stack + thread context only
	RegionDup     = entry("RegionDup", 16)       // per-page cost of duplicating a page table (fork)
	LazyDup       = entry("LazyDup", 64)         // per-region cost of a lazy COW clone at spawn
	FDTableCopy   = entry("FDTableCopy", 8)      // per-descriptor cost of copying the fd table
	AttrSync      = entry("AttrSync", 150)       // reconciling one dirty shared attribute on entry
	PageCapture   = entry("PageCapture", 16)     // one page a checkpoint captures or a restore writes back
	PollScan      = entry("PollScan", 1)         // one bitmap word (8 descriptors) of a poll(2) scan
	UserCopy      = entry("UserCopy", 1)         // one 64-byte line of a user bulk copy past its first access
	KernelCopy    = entry("KernelCopy", 1)       // one 64-byte line of a message's kernel copy; each copy pays one more
	SpinDrip      = entry("SpinDrip", 1)         // one drip of a cached spin: spinPollsPerCycle polls
	FreezePoll    = entry("FreezePoll", 32)      // one poll of a checkpoint's freeze for its members
	PassGapStep   = entry("PassGapStep", 512)    // one step of the idle gap between pre-copy passes
	CkptDelay     = entry("CkptDelay", 1)        // one cycle of an injected checkpoint pass delay
	RetryBackoff  = entry("RetryBackoff", 64)    // the EAGAIN retry backoff's base, charged 2^retry times
	DispatchStall = entry("DispatchStall", 1000) // an injected stall at dispatch
)

// costTable holds every entry's name and price, in the order the entries
// were minted.
var costTable []costEntry

// maxCosts bounds the table, so a CPU holds its counts in place, beside
// Cycles, and a charge's count add does not chase a pointer.
const maxCosts = 32

type costEntry struct {
	name   string
	cycles int64
}

func entry(name string, cycles int64) Cost {
	if len(costTable) == maxCosts {
		panic("hw: the cost table holds at most maxCosts entries")
	}
	costTable = append(costTable, costEntry{name, cycles})
	return Cost{uint8(len(costTable) - 1)}
}

// String returns the entry's name.
func (c Cost) String() string { return costTable[c.i].name }

// Price returns the cycles one unit of the entry charges.
func (c Cost) Price() int64 { return costTable[c.i].cycles }

// AllCosts returns every entry of the table, in table order.
func AllCosts() []Cost {
	all := make([]Cost, len(costTable))
	for i := range all {
		all[i] = Cost{uint8(i)}
	}
	return all
}

// CPU is one processor of the machine: an ID, a private software-managed
// TLB, a cycle accumulator and, for each cost entry, how many units of it
// the accumulator holds.
type CPU struct {
	ID     int
	TLB    TLB
	Cycles atomic.Int64
	counts [maxCosts]atomic.Int64 // by entry

	Faults atomic.Int64 // page faults taken here
}

// Charge adds n units of cost to the CPU: n times its price to Cycles and n
// to its count. It returns the cycles added.
func (c *CPU) Charge(cost Cost, n int64) int64 {
	cyc := n * cost.Price()
	c.Cycles.Add(cyc)
	c.counts[cost.i].Add(n)
	return cyc
}

// Count returns the units of cost charged to the CPU so far.
func (c *CPU) Count(cost Cost) int64 { return c.counts[cost.i].Load() }

// Machine is the simulated multiprocessor: NCPU processors sharing one
// physical memory.
type Machine struct {
	CPUs []*CPU
	Mem  *Memory

	// Trace is the kernel event ring; nil disables tracing (the zero
	// cost path — every Record on a nil ring is a no-op).
	Trace *trace.Ring

	ShootdownOps    atomic.Int64 // machine-wide shootdown operations
	PageShootdowns  atomic.Int64 // shootdowns served page-by-page (small ranges)
	SpaceShootdowns atomic.Int64 // shootdowns that flushed a whole space

	nextASID atomic.Uint32
}

// DefaultPageShootdownMax is the ShootdownRange threshold: ranges of up to
// this many pages are invalidated page-by-page, which leaves the members'
// unrelated TLB entries warm; larger ones flush the whole space. The
// break-even point is where per-page TLB bookkeeping on every member
// outgrows the cost of refilling the unrelated entries a space flush
// discards — with a 64-entry R2000-style TLB and a ~20-cycle
// software refill that crossover sits at around 8 pages. The IPI count is
// the same either way (one per remote CPU, the initiator names the pages
// in the request).
const DefaultPageShootdownMax = 8

// NewMachine builds a machine with ncpu processors and memFrames page
// frames of physical memory.
func NewMachine(ncpu, memFrames int) *Machine {
	if ncpu <= 0 {
		panic("hw: machine needs at least one CPU")
	}
	m := &Machine{
		CPUs: make([]*CPU, ncpu),
		Mem:  NewMemory(memFrames),
	}
	m.Mem.AttachCaches(ncpu)
	for i := range m.CPUs {
		m.CPUs[i] = &CPU{ID: i}
	}
	m.nextASID.Store(uint32(NoASID))
	return m
}

// NCPU returns the number of processors.
func (m *Machine) NCPU() int { return len(m.CPUs) }

// AllocASID hands out a fresh address-space identifier.
func (m *Machine) AllocASID() ASID {
	return ASID(m.nextASID.Add(1))
}

// shootdown is the body of every shootdown: one operation, recorded with
// the trace arguments given, that runs flush on every CPU's TLB and charges
// the initiating CPU one IPI per remote processor.
func (m *Machine) shootdown(initiator *CPU, space ASID, npages int, vpn uint32, flush func(*TLB)) {
	m.ShootdownOps.Add(1)
	cpu := int32(-1)
	if initiator != nil {
		cpu = int32(initiator.ID)
	}
	m.Trace.Record(trace.EvShootdown, int32(npages), cpu, uint64(space), vpn)
	for _, c := range m.CPUs {
		flush(&c.TLB)
		if c != initiator {
			c.TLB.Shootdowns.Add(1)
		}
	}
	if initiator != nil {
		initiator.Charge(IPI, int64(len(m.CPUs)-1))
	}
}

// ShootdownSpace synchronously flushes every CPU's TLB entries for the
// given address space, charging the initiating CPU one IPI per remote
// processor. This is the paper's §6.2 protocol: because the R2000 TLB is
// software managed, the kernel can flush all processors while holding the
// share group's update lock; running members immediately take TLB-miss
// exceptions, attempt the shared read lock, and sleep until the update is
// complete.
func (m *Machine) ShootdownSpace(initiator *CPU, space ASID) {
	m.SpaceShootdowns.Add(1)
	m.shootdown(initiator, space, 0, 0, func(t *TLB) { t.FlushSpace(space) })
}

// ShootdownRange invalidates npages pages starting at vpn on every CPU.
// A small range (≤ DefaultPageShootdownMax) is flushed page-by-page in a
// single batch: one IPI per remote processor covers all the pages (the
// initiator names them in the request), so members keep the rest of their
// cached translations — the common stack-recycle and small-unmap case. A
// large range falls back to a full space flush, which is cheaper than
// walking the TLB once per page.
func (m *Machine) ShootdownRange(initiator *CPU, vpn uint32, npages int, space ASID) {
	if npages > DefaultPageShootdownMax {
		m.ShootdownSpace(initiator, space)
		return
	}
	m.PageShootdowns.Add(1)
	m.shootdown(initiator, space, npages, vpn, func(t *TLB) {
		for i := 0; i < npages; i++ {
			t.FlushPage(vpn+uint32(i), space)
		}
	})
}

// TotalCycles sums the cycle counters of all CPUs.
func (m *Machine) TotalCycles() int64 {
	var n int64
	for _, c := range m.CPUs {
		n += c.Cycles.Load()
	}
	return n
}

// String summarizes the machine configuration.
func (m *Machine) String() string {
	return fmt.Sprintf("machine{ncpu=%d, mem=%dKiB}", len(m.CPUs), m.Mem.Capacity()*PageSize/1024)
}
