// Package kernel is the system-call layer tying the substrates together:
// it boots a simulated machine, owns the process table, dispatches
// processes through the scheduler, and implements the V.3 system-call
// surface extended with the paper's sproc(2) and prctl(2).
//
// A simulated program is a Go closure of type Main executing against a
// Context, which stands in for the user-mode CPU state: every memory
// access goes through the per-CPU software TLB and the region fault
// handler, and every system call passes the kernel entry point where the
// p_flag synchronization bits are checked in a single test (paper §6.3).
package kernel

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/ipc"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Config describes the simulated system. Zero values select the documented
// defaults; negative values (and out-of-range rates) are rejected by
// Validate — a degenerate machine is a configuration error, not something
// to boot.
type Config struct {
	NCPU      int   // processors (default 4)
	MemFrames int   // physical page frames (default 16384 = 64 MiB)
	TimeSlice int64 // charge units per slice (default sched.DefaultSlice)
	MaxProcs  int   // per-user process limit, PR_MAXPROCS (default 256)
	MaxFiles  int   // per-process descriptor ceiling (default proc.NOFILE; at least proc.NFdInit)

	// Image geometry for fresh processes (text is textPages, fixed).
	DataPages int // default 64

	// Ablation switches (DESIGN.md §6): the designs the paper rejected.
	ExclusiveVMLock bool // exclusive lock on the shared pregion list
	EagerAttrSync   bool // push attribute updates instead of deferring
	EagerDup        bool // spawn-time region table walks (pre-lazy fork)

	// TraceEvents enables the kernel event ring with the given capacity
	// (0 disables tracing entirely).
	TraceEvents int

	// Fault injection: when FaultRate is positive, the system boots with a
	// deterministic fault plan seeded from FaultSeed, armed at every site
	// with FaultRate per-mille probability (tune per site afterwards via
	// FaultPlan). The same seed reproduces the same injection sequence.
	FaultSeed uint64
	FaultRate int // per-mille, 0 = no injection, max 1000
}

func (c Config) withDefaults() Config {
	if c.NCPU == 0 {
		c.NCPU = 4
	}
	if c.MemFrames == 0 {
		c.MemFrames = 16384
	}
	if c.MaxProcs == 0 {
		c.MaxProcs = 256
	}
	if c.DataPages == 0 {
		c.DataPages = 64
	}
	return c
}

// Validate rejects configurations that cannot describe a machine. Zero
// means "use the default" throughout, so only genuinely meaningless values
// (negative counts, out-of-range rates) fail.
func (c Config) Validate() error {
	switch {
	case c.NCPU < 0:
		return fmt.Errorf("kernel: Config.NCPU must be >= 0 (0 = default), got %d", c.NCPU)
	case c.MemFrames < 0:
		return fmt.Errorf("kernel: Config.MemFrames must be >= 0 (0 = default), got %d", c.MemFrames)
	case c.TimeSlice < 0:
		return fmt.Errorf("kernel: Config.TimeSlice must be >= 0 (0 = default), got %d", c.TimeSlice)
	case c.MaxProcs < 0:
		return fmt.Errorf("kernel: Config.MaxProcs must be >= 0 (0 = default), got %d", c.MaxProcs)
	case c.MaxFiles < 0:
		return fmt.Errorf("kernel: Config.MaxFiles must be >= 0 (0 = default), got %d", c.MaxFiles)
	case c.MaxFiles > 0 && c.MaxFiles < proc.NFdInit:
		// Every table starts NFdInit slots long, so a lower ceiling would
		// be accepted and never enforced.
		return fmt.Errorf("kernel: Config.MaxFiles %d is below the %d slots every descriptor table starts with (proc.NFdInit)", c.MaxFiles, proc.NFdInit)
	case c.DataPages < 0:
		return fmt.Errorf("kernel: Config.DataPages must be >= 0 (0 = default), got %d", c.DataPages)
	case c.TraceEvents < 0:
		return fmt.Errorf("kernel: Config.TraceEvents must be >= 0 (0 = off), got %d", c.TraceEvents)
	case c.FaultRate < 0 || c.FaultRate > 1000:
		return fmt.Errorf("kernel: Config.FaultRate is per-mille, 0..1000, got %d", c.FaultRate)
	}
	return nil
}

// Main is a user program: the code a process executes.
type Main func(*Context)

// System is the booted kernel.
type System struct {
	Machine *hw.Machine
	FS      *fs.FS
	Sched   *sched.Sched
	IPC     *ipc.Registry
	Net     *ipc.NetNames
	cfg     Config

	// sysacct is the gateway's per-CPU syscall accounting (one slot per
	// CPU plus an overflow slot for calls finishing off-CPU).
	sysacct []*sysAcct

	mu      sync.Mutex
	procs   map[int]*proc.Proc
	mains   map[int]Main // pending images for Exec
	nextPID int

	// Fault injection and degradation counters.
	faults   *faultinject.Plan
	restarts atomic.Int64 // EINTR auto-restarts performed by the gateway
	retries  atomic.Int64 // EAGAIN retries performed by the gateway

	// Blockproc sleep-wake counters (syscalls_block.go).
	blocks      atomic.Int64 // blockproc calls that actually slept
	blockWakes  atomic.Int64 // unblocks that released a sleeper
	bankedWakes atomic.Int64 // unblocks banked with no sleeper to release
	spinBlocks  atomic.Int64 // uspin bounded spins converted to blockproc

	// Sleeps on every share block's descriptor update semaphore
	// (core.ShAddr.CountFdSleeps).
	fdSemaSleeps atomic.Int64

	// Readiness-notification aggregation (syscalls_poll.go, ipc/pollable.go).
	pollStats  *ipc.PollStats
	pollSleeps atomic.Int64 // poll(2) calls that actually slept (per wait)

	// Checkpoint/restore (syscalls_ckpt.go). ckptMu serializes initiators:
	// one live checkpoint at a time, system-wide; a loser surfaces EAGAIN
	// so the gateway's retry backoff applies instead of queueing frozen
	// initiators behind each other.
	ckptMu         sync.Mutex
	ckpts          atomic.Int64 // checkpoints completed
	ckptPasses     atomic.Int64 // pre-copy passes executed
	ckptPrePages   atomic.Int64 // pages copied live by pre-copy passes
	ckptSTWPages   atomic.Int64 // pages copied inside stop-the-world windows
	ckptSTWCycles  atomic.Int64 // simulated cycles initiators spent in STW
	ckptImageBytes atomic.Int64 // encoded image bytes produced
	restores       atomic.Int64 // groups rebuilt from an image

	wg sync.WaitGroup // live processes
}

// NewSystem boots a machine and kernel with the given configuration. It
// panics on an invalid configuration; use NewSystemChecked to get the
// error instead.
func NewSystem(cfg Config) *System {
	s, err := NewSystemChecked(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemChecked is NewSystem returning configuration errors.
func NewSystemChecked(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := hw.NewMachine(cfg.NCPU, cfg.MemFrames)
	s := &System{
		Machine: m,
		FS:      fs.New(),
		Sched:   sched.New(m, cfg.TimeSlice),
		IPC:     ipc.NewRegistry(),
		Net:     ipc.NewNetNames(),
		cfg:     cfg,
		procs:   map[int]*proc.Proc{},
		mains:   map[int]Main{},
	}
	s.pollStats = &ipc.PollStats{}
	s.Net.SetPollStats(s.pollStats)
	s.sysacct = make([]*sysAcct, cfg.NCPU+1)
	for i := range s.sysacct {
		s.sysacct[i] = &sysAcct{}
	}
	if cfg.TraceEvents > 0 {
		m.Trace = trace.NewMP(cfg.TraceEvents, cfg.NCPU)
	}
	if cfg.FaultRate > 0 {
		s.ArmFaults(faultinject.New(cfg.FaultSeed, cfg.FaultRate))
	}
	return s, nil
}

// ArmFaults wires a fault plan into every injection site: the syscall
// gateway, the frame allocator, the dispatcher, and the blocking IPC
// paths. Injected faults are recorded as EvFaultInject trace events. Call
// at boot, before user code runs; nil disarms the gateway and allocator
// sites (IPC objects created while armed keep their plan).
func (s *System) ArmFaults(pl *faultinject.Plan) {
	s.faults = pl
	s.Machine.Mem.FI = pl
	s.Sched.FI = pl
	s.IPC.SetFault(pl)
	s.Net.SetFault(pl)
	if pl != nil {
		pl.Recorder = func(site faultinject.Site, fault faultinject.Fault, key uint32) {
			s.Machine.Trace.Record(trace.EvFaultInject, -1, -1,
				uint64(key), uint32(site)<<8|uint32(fault))
		}
	}
}

// FaultPlan returns the armed fault plan, or nil.
func (s *System) FaultPlan() *faultinject.Plan { return s.faults }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// allocPID hands out the next process id.
func (s *System) allocPID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextPID++
	return s.nextPID
}

// register adds p to the process table and arms its per-process syscall
// profile (read back through ProcSyscalls).
func (s *System) register(p *proc.Proc) {
	p.SysCount = make([]atomic.Int64, NSys)
	s.mu.Lock()
	s.procs[p.PID] = p
	s.mu.Unlock()
}

// unregister removes p from the process table.
func (s *System) unregister(p *proc.Proc) {
	s.mu.Lock()
	delete(s.procs, p.PID)
	s.mu.Unlock()
}

// Lookup finds a process by pid.
func (s *System) Lookup(pid int) (*proc.Proc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[pid]
	return p, ok
}

// NProcs returns the number of live process-table entries.
func (s *System) NProcs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.procs)
}

// Procs returns a snapshot of the process table.
func (s *System) Procs() []*proc.Proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*proc.Proc, 0, len(s.procs))
	for _, p := range s.procs {
		out = append(out, p)
	}
	return out
}

// textPages is the text region of every fresh image.
const textPages = 16

// newImage builds a standard fresh address space: text, data, stack at the
// top of the space, a private PRDA at its fixed location, and an untouched
// mapping arena.
func (s *System) newImage(p *proc.Proc) {
	mem := s.Machine.Mem
	p.Stack = &vm.PRegion{Reg: vm.NewRegion(mem, vm.RStack, p.StackMax), Base: vm.MainStackTop - hw.VAddr(p.StackMax*hw.PageSize)}
	p.Private = vm.NewSpace(
		&vm.PRegion{Reg: vm.NewRegion(mem, vm.RText, textPages), Base: vm.TextBase},
		&vm.PRegion{Reg: vm.NewRegion(mem, vm.RData, s.cfg.DataPages), Base: vm.DataBase},
		p.Stack,
		s.freshPRDA(),
	)
}

// freshPRDA returns a new, untouched PRDA at its fixed base: every process
// that is not a plain fork copy starts with its own.
func (s *System) freshPRDA() *vm.PRegion {
	return &vm.PRegion{Reg: vm.NewRegion(s.Machine.Mem, vm.RPRDA, vm.PRDAPages), Base: vm.PRDABase}
}

// Start launches a fresh top-level process executing main and returns its
// pid immediately. The process's cdir and rdir are the filesystem root; it
// owns a standard image and runs as root. This is the system's one entry
// point for launching programs (WaitIdle blocks until all have exited).
func (s *System) Start(name string, main Main) int {
	p := proc.New(s.allocPID(), name)
	p.Sched = s.Sched
	p.ASID = s.Machine.AllocASID()
	p.Cdir = s.FS.Root().Hold()
	p.Rdir = s.FS.Root().Hold()
	p.FdMax = s.cfg.MaxFiles
	s.newImage(p)
	s.register(p)
	s.startProc(p, main)
	return p.PID
}

// processExit unwinds a process's stack on exit(2) or a fatal signal.
type processExit struct{ status int }

// processExec unwinds a process's stack on exec(2), carrying the new image.
type processExec struct {
	name string
	main Main
}

// startProc hands p's life to a carrier, an idle one if there is one: wait
// for dispatch, run images until the process exits, then reap.
func (s *System) startProc(p *proc.Proc, main Main) {
	s.wg.Add(1)
	life := func() {
		// Done follows Exit, so WaitIdle returns only after the last
		// process has given its CPU back.
		defer s.wg.Done()
		<-p.RunGate
		status := 0
		img := main
		for img != nil {
			next, st := s.runImage(p, img)
			img, status = next, st
		}
		s.reap(p, status)
		s.Sched.Exit(p)
	}
	select {
	case lives <- life: // a parked carrier takes it
	default:
		carriersStarted.Add(1)
		go carrier(life)
	}
	s.Sched.Ready(p)
}

// maxIdleCarriers bounds the goroutines (and their grown stacks) kept parked
// between processes; a carrier that would be one more ends.
const maxIdleCarriers = 64

var (
	lives           = make(chan func()) // startProc's hand-off to a parked carrier, any System's
	idleCarriers    atomic.Int32        // carriers parked on lives, or about to
	carriersStarted atomic.Int64        // goroutines ever started by startProc
)

// carrier is the goroutine a simulated process lives on. A goroutine born
// per process would grow its stack from the runtime's starting size on
// every creation, as often as the runtime's per-GC guess at that size
// decides; a carrier keeps its grown stack, parks on the hand-off channel
// and is given the next process's life. It recovers nothing, and parked it
// holds no reference to the process or System it last ran: life is cleared
// before it parks.
func carrier(life func()) {
	for {
		life()
		life = nil
		if idleCarriers.Add(1) > maxIdleCarriers {
			idleCarriers.Add(-1)
			return
		}
		life = <-lives
		idleCarriers.Add(-1)
	}
}

// runImage executes one program image, converting the exit/exec panics
// into control flow. It returns the next image to run (exec) or nil (exit)
// with the exit status.
func (s *System) runImage(p *proc.Proc, img Main) (next Main, status int) {
	c := &Context{S: s, P: p}
	defer func() {
		r := recover()
		c.pollEnd()
		switch e := r.(type) {
		case nil:
		case processExit:
			next, status = nil, e.status
		case processExec:
			p.Name = e.name
			next, status = e.main, 0
		default:
			panic(r)
		}
	}()
	img(c)
	return nil, 0
}

// reap performs the kernel half of exit(2): release the image and
// descriptors, leave the share group, reparent children, notify the
// parent. The proc-table entry survives as a zombie until the parent waits
// (or is removed immediately if no one can wait).
func (s *System) reap(p *proc.Proc, status int) {
	// Leave the share group first: the group must survive member exit. A
	// member that ran in the group's space has it flushed there, under the
	// update lock, before its stack is freed (paper §6.2); any other process
	// has its own space flushed below.
	sharedVM := p.Shares(proc.PRSADDR)
	if sa := p.ShareGrp(); sa != nil {
		sa.Leave(p)
	}

	p.Mu.Lock()
	p.CloseAllFds()
	cdir, rdir := p.Cdir, p.Rdir
	p.Cdir, p.Rdir = nil, nil
	p.ExitStatus = status
	p.Mu.Unlock()
	cdir.Release()
	rdir.Release()

	p.Private.Clear()
	if !sharedVM {
		s.Machine.ShootdownSpace(nil, p.ASID)
	}

	// Reparent children: orphans that are already zombies are discarded;
	// live orphans will be discarded when they exit.
	p.Mu.Lock()
	children := p.Children
	p.Children = nil
	p.Mu.Unlock()
	for _, c := range children {
		c.Mu.Lock()
		c.PPID = 0 // orphaned
		c.Mu.Unlock()
		select {
		case <-c.Exited:
			s.unregister(c)
		default:
		}
	}

	p.SetState(proc.SZomb)
	s.Machine.Trace.Record(trace.EvExit, int32(p.PID), -1, uint64(status), 0)
	close(p.Exited)

	// Notify the parent.
	s.mu.Lock()
	parent := s.procs[p.PPID]
	s.mu.Unlock()
	if parent != nil {
		parent.Post(proc.SIGCLD)
	} else {
		// Orphan: no one will wait; drop the table entry now. A signal
		// death with nobody to observe it is reported like a shell
		// would, so misbehaving programs are not silently lost.
		if status >= 128 {
			fmt.Fprintf(os.Stderr, "kernel: pid %d (%s) killed by signal %d\n", p.PID, p.Name, status-128)
		}
		s.unregister(p)
	}
}

// WaitIdle blocks until every process has exited (test and example
// teardown). With no process left every CPU must be idle and every run
// queue empty; anything else is a scheduler bug and panics here, naming
// what is still on a CPU.
func (s *System) WaitIdle() {
	s.wg.Wait()
	if idle, queued := s.Sched.IdleCPUs(), s.Sched.RunqLen(); idle != len(s.Machine.CPUs) || queued != 0 {
		msg := fmt.Sprintf("kernel: WaitIdle with every process exited: %d of %d CPUs idle, %d queued", idle, len(s.Machine.CPUs), queued)
		for cpu, p := range s.Sched.Running() {
			if p != nil {
				msg += fmt.Sprintf("; CPU %d runs pid %d (%s)", cpu, p.PID, p.Name)
			}
		}
		panic(msg)
	}
}

// String summarizes the system.
func (s *System) String() string {
	return fmt.Sprintf("system{%v, procs=%d}", s.Machine, s.NProcs())
}
