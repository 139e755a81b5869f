package kernel

// Tests for the deterministic fault-injection plan wired through the
// kernel: same seed → same injection sequence, counters surfaced through
// Stats(), EvFaultInject trace events, and the frame allocator's
// drain-and-reclaim degradation path.

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vm"
)

// faultScript is a strictly single-process, signal-free syscall sequence:
// with one process there is exactly one draw order per site, so two runs
// under the same seed must make identical injection decisions.
func faultScript(c *Context) {
	for i := 0; i < 60; i++ {
		fd, err := c.Open("/f", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
		if err != nil {
			continue // injected EINTR: open is not restartable
		}
		c.WriteString(fd, vm.DataBase, "abcdefgh")
		c.Read(fd, vm.DataBase+64, 8)
		c.Close(fd)
		c.Sbrk(hw.PageSize)
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	run := func() ([]faultinject.Record, int64) {
		cfg := testConfig()
		cfg.FaultSeed = 0xbeefcafe
		cfg.FaultRate = 250
		s := NewSystem(cfg)
		s.FaultPlan().EnableLog(4096)
		s.Start("script", faultScript)
		waitIdle(t, s)
		return s.FaultPlan().Log(), s.FaultPlan().TotalInjected()
	}
	log1, n1 := run()
	log2, n2 := run()
	if n1 == 0 {
		t.Fatal("plan injected nothing at rate 250")
	}
	if n1 != n2 {
		t.Fatalf("injection counts differ: %d vs %d", n1, n2)
	}
	if len(log1) != len(log2) {
		t.Fatalf("log lengths differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("log[%d] differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
}

func TestFaultSeedChangesSequence(t *testing.T) {
	run := func(seed uint64) []faultinject.Record {
		cfg := testConfig()
		cfg.FaultSeed = seed
		cfg.FaultRate = 250
		s := NewSystem(cfg)
		s.FaultPlan().EnableLog(4096)
		s.Start("script", faultScript)
		waitIdle(t, s)
		return s.FaultPlan().Log()
	}
	a, b := run(1), run(2)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same && len(a) > 0 {
			t.Error("different seeds produced identical injection logs")
		}
	}
}

// Injected faults must be visible in Stats() and in the trace ring: one
// EvFaultInject event per injection (as long as nothing was dropped).
func TestFaultCountersAndTrace(t *testing.T) {
	cfg := testConfig()
	cfg.FaultSeed = 42
	cfg.FaultRate = 200
	cfg.TraceEvents = 1 << 16
	s := NewSystem(cfg)
	s.Start("script", faultScript)
	waitIdle(t, s)

	st := s.Stats()
	if st.FaultChecks == 0 || st.FaultsInjected == 0 {
		t.Fatalf("FaultChecks=%d FaultsInjected=%d, want both > 0", st.FaultChecks, st.FaultsInjected)
	}
	var checks, injected int64
	for _, row := range st.FaultSites {
		checks += row.Checks
		injected += row.Injected
	}
	if checks != st.FaultChecks || injected != st.FaultsInjected {
		t.Errorf("site rows sum to (%d,%d), totals are (%d,%d)", checks, injected, st.FaultChecks, st.FaultsInjected)
	}
	if st.TraceDropped == 0 {
		if got := s.Machine.Trace.CountKind(trace.EvFaultInject); int64(got) != st.FaultsInjected {
			t.Errorf("EvFaultInject events = %d, injections = %d", got, st.FaultsInjected)
		}
	}
}

// The frame allocator degrades before failing: an injected allocation
// fault first drains the per-CPU caches back to the pool (FrameReclaims),
// and only a fraction surfaces as ENOMEM. Processes touching memory under
// that regime may die on the injected SIGSEGV, but the kernel must not —
// and frame conservation must hold afterwards.
func TestFrameReclaimUnderInjection(t *testing.T) {
	cfg := testConfig()
	cfg.FaultSeed = 7
	cfg.FaultRate = 400
	s := NewSystem(cfg)
	s.Start("parent", func(c *Context) {
		for i := 0; i < 8; i++ {
			c.Fork("toucher", func(cc *Context) {
				for j := 0; j < 32; j++ {
					va, err := cc.Sbrk(hw.PageSize)
					if err != nil {
						continue // injected ENOMEM: degrade, keep going
					}
					// Touch the new page (Sbrk returns the old break): frame
					// allocation happens at fault time, where injection bites.
					cc.Store32(va, uint32(j))
				}
			})
		}
		for {
			if _, _, err := c.Wait(); err != nil {
				if errors.Is(err, ErrNoChildren) {
					break
				}
			}
		}
	})
	waitIdle(t, s)
	if s.Stats().FrameReclaims == 0 {
		t.Error("no drain-and-reclaim pass ran under 400‰ framealloc injection")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NCPU: -1},
		{MemFrames: -5},
		{TimeSlice: -1},
		{MaxProcs: -2},
		{MaxFiles: proc.NFdInit - 1},
		{FaultRate: -1},
		{FaultRate: 1001},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		if _, err := NewSystemChecked(cfg); err == nil {
			t.Errorf("NewSystemChecked(%+v) = nil error, want error", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("Validate(zero) = %v, want nil", err)
	}
	if err := (Config{MaxFiles: proc.NFdInit}).Validate(); err != nil {
		t.Errorf("Validate(MaxFiles = NFdInit) = %v, want nil", err)
	}
	// A ceiling below the initial table names both numbers.
	if err := (Config{MaxFiles: 7}).Validate(); err == nil || !strings.Contains(err.Error(), " 7 ") || !strings.Contains(err.Error(), strconv.Itoa(proc.NFdInit)) {
		t.Errorf("Validate(MaxFiles = 7) = %v, want an error naming 7 and %d", err, proc.NFdInit)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSystem(invalid) did not panic")
			}
		}()
		NewSystem(Config{NCPU: -1})
	}()
}
