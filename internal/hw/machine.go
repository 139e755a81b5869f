package hw

import (
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// Costs is the cycle cost model. Every kernel and memory operation charges
// cycles to the CPU it runs on, so experiments can report simulated cycles
// alongside wall-clock time. The defaults are scaled from the R2000 era
// (roughly 16 MHz, cache-less memory at a few cycles per access); only the
// ratios matter for reproducing the paper's shapes.
type Costs struct {
	MemAccess     int64 // one user load/store that hits the TLB
	TLBRefill     int64 // software TLB refill (fast path, no fault)
	PageFault     int64 // full fault: trap, pregion scan, validate
	PageZero      int64 // demand zero-fill of one page
	PageCopy      int64 // copy-on-write copy of one page
	SyscallEntry  int64 // trap into the kernel
	SyscallExit   int64 // return to user mode
	ContextSwitch int64 // dispatch a different process on a CPU
	IPI           int64 // one inter-processor interrupt (TLB shootdown)
	SemaSleep     int64 // block on a kernel semaphore
	SemaWakeup    int64 // wake a kernel semaphore sleeper
	ProcCreate    int64 // proc-table entry, u-area, kernel stack
	ThreadCreate  int64 // Mach baseline: kernel stack + thread context only
	RegionDup     int64 // per-page cost of duplicating a page table (fork)
	LazyDup       int64 // per-region cost of a lazy COW clone at spawn
	FDTableCopy   int64 // per-descriptor cost of copying the fd table
	AttrSync      int64 // reconciling one dirty shared attribute on entry
}

// DefaultCosts returns the standard cost table.
func DefaultCosts() Costs {
	return Costs{
		MemAccess:     1,
		TLBRefill:     20,
		PageFault:     500,
		PageZero:      1024,
		PageCopy:      2048,
		SyscallEntry:  100,
		SyscallExit:   60,
		ContextSwitch: 1000,
		IPI:           400,
		SemaSleep:     300,
		SemaWakeup:    250,
		ProcCreate:    4000,
		ThreadCreate:  800,
		RegionDup:     16,
		LazyDup:       64,
		FDTableCopy:   8,
		AttrSync:      150,
	}
}

// CPU is one processor of the machine: an ID, a private software-managed
// TLB, and a cycle accumulator.
type CPU struct {
	ID     int
	TLB    TLB
	Cycles atomic.Int64

	Switches atomic.Int64 // context switches dispatched here
	Faults   atomic.Int64 // page faults taken here
}

// Charge adds n cycles to the CPU's accumulator.
func (c *CPU) Charge(n int64) { c.Cycles.Add(n) }

// Machine is the simulated multiprocessor: NCPU processors sharing one
// physical memory.
type Machine struct {
	CPUs []*CPU
	Mem  *Memory
	Cost Costs

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
		Cost: DefaultCosts(),
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
			if initiator != nil {
				initiator.Charge(m.Cost.IPI)
			}
		}
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
