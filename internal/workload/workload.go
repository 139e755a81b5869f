// Package workload implements the paper's experiments (DESIGN.md E1..E10)
// as reusable drivers: each boots a fresh simulated system, runs a
// workload inside it, and reports wall-clock time, simulated cycles, and
// event counts. cmd/benchtab builds on these drivers, so the numbers in
// EXPERIMENTS.md are regenerable from it.
package workload

import (
	"fmt"
	"time"

	"repro/internal/kernel"
)

// Metrics reports one experiment run.
type Metrics struct {
	Wall       time.Duration // host wall-clock time of the measured section
	Cycles     int64         // simulated CPU cycles consumed by the section
	Ops        int64         // unit operations performed
	Shootdowns int64         // machine-wide TLB shootdown operations
	Faults     int64         // page faults taken
	Syncs      int64         // share-group entry synchronizations
	Preempts   int64         // scheduler preemptions
	Updater    int64         // cycles charged to the driver process alone
	RLocks     int64         // shared-read acquisitions of the VM lock
	WLocks     int64         // exclusive acquisitions of the VM lock
	LockSleeps int64         // times a process slept on the VM lock
	Dispatches int64         // CPU dispatches of the measured processes
	FastFills  int64         // faults resolved on the lock-free PTE path
	SlowFills  int64         // faults that took a region fill stripe
	CacheHits  int64         // faults served by a last-hit pregion cache

	// Sleep-wake subsystem (blockproc/unblockproc, hybrid uspin).
	Blocks       int64 // blockproc(2) calls that actually slept
	Wakes        int64 // unblocks that released a sleeper
	BankedWakes  int64 // unblocks banked with no sleeper (wasted wakes)
	SpinToBlocks int64 // bounded spins converted to blockproc sleeps
}

// UpdaterPerOp returns the driver process's own cycles per operation —
// the critical-path cost the deferred-synchronization design minimizes.
func (m Metrics) UpdaterPerOp() float64 {
	if m.Ops == 0 {
		return 0
	}
	return float64(m.Updater) / float64(m.Ops)
}

// CyclesPerOp returns simulated cycles per unit operation.
func (m Metrics) CyclesPerOp() float64 {
	if m.Ops == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Ops)
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("ops=%d wall=%v cycles/op=%.0f shootdowns=%d faults=%d",
		m.Ops, m.Wall.Round(time.Microsecond), m.CyclesPerOp(), m.Shootdowns, m.Faults)
}

// DefaultConfig is the standard experiment machine: 4 processors, 64 MiB,
// short time slices so preemption is realistic at bench scale.
func DefaultConfig() kernel.Config {
	return kernel.Config{NCPU: 4, MemFrames: 16384, TimeSlice: 2000}
}

// session boots a system, runs body as process 1, waits for the system to
// go idle, and collects machine-level deltas around the measured section.
// body must call s.start() when setup is done and s.stop() when the
// measured section ends.
type session struct {
	Sys      *kernel.System
	t0       time.Time
	wall     time.Duration
	c0       int64
	cycles   int64
	sd0, sd1 int64
	f0, f1   int64
	p0, p1   int64
}

func newSession(cfg kernel.Config) *session {
	return &session{Sys: kernel.NewSystem(cfg)}
}

func (s *session) start() {
	s.c0 = s.Sys.Machine.TotalCycles()
	s.sd0 = s.Sys.Machine.ShootdownOps.Load()
	s.f0 = s.faults()
	s.p0 = s.Sys.Sched.Preemptions.Load()
	s.t0 = time.Now()
}

func (s *session) stop() {
	s.wall = time.Since(s.t0)
	s.cycles = s.Sys.Machine.TotalCycles() - s.c0
	s.sd1 = s.Sys.Machine.ShootdownOps.Load()
	s.f1 = s.faults()
	s.p1 = s.Sys.Sched.Preemptions.Load()
}

func (s *session) faults() int64 {
	var n int64
	for _, c := range s.Sys.Machine.CPUs {
		n += c.Faults.Load()
	}
	return n
}

// metrics finalizes the session into a Metrics with the given op count.
func (s *session) metrics(ops int64) Metrics {
	return Metrics{
		Wall:       s.wall,
		Cycles:     s.cycles,
		Ops:        ops,
		Shootdowns: s.sd1 - s.sd0,
		Faults:     s.f1 - s.f0,
		Preempts:   s.p1 - s.p0,
	}
}

// runMeasured boots cfg, runs body as process 1 (bracketing it with
// start/stop), waits for idle, and returns metrics for ops operations.
func runMeasured(cfg kernel.Config, ops int64, body func(*kernel.Context, *session)) Metrics {
	s := newSession(cfg)
	s.Sys.Start("driver", func(c *kernel.Context) {
		body(c, s)
	})
	s.Sys.WaitIdle()
	return s.metrics(ops)
}
