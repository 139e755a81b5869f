package kernel

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/proc"
	"repro/internal/trace"
)

// TestErrnoMapping pins the error envelope contract: a syscall failure is a
// *SysError carrying a stable Errno, matchable three ways — errors.Is
// against the original sentinel, errors.Is against the bare Errno, and
// errors.As extraction of the envelope.
func TestErrnoMapping(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("errno", func(c *Context) {
		_, err := c.Open("/does/not/exist", fs.ORead, 0)
		if err == nil {
			t.Fatal("open of missing file succeeded")
		}
		if !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("err %v does not match fs.ErrNotExist", err)
		}
		if !errors.Is(err, ENOENT) {
			t.Errorf("err %v does not match ENOENT", err)
		}
		var se *SysError
		if !errors.As(err, &se) {
			t.Fatalf("err %v is not a *SysError", err)
		}
		if se.Num != ENOENT || se.Call != "open" {
			t.Errorf("envelope = {call %q, errno %v}, want {open, ENOENT}", se.Call, se.Num)
		}
		if got := ErrnoOf(err); got != ENOENT {
			t.Errorf("ErrnoOf = %v, want ENOENT", got)
		}

		if _, err := c.Read(42, 0, 1); !errors.Is(err, EBADF) {
			t.Errorf("read(42) = %v, want EBADF", err)
		}
		if _, _, err := c.Wait(); !errors.Is(err, ECHILD) {
			t.Errorf("wait = %v, want ECHILD", err)
		}
	})
	s.WaitIdle()
}

// A gateway-injected EINTR wraps only the code, not the ErrInterrupt
// sentinel a syscall body returns; the envelope must still satisfy both
// spellings, because every retry loop tests errors.Is(err, ErrInterrupt).
func TestInjectedEINTRMatchesErrInterrupt(t *testing.T) {
	s := NewSystem(testConfig())
	pl := faultinject.New(1, 0)
	pl.SetRate(faultinject.SiteSyscallEnter, 1000)
	s.ArmFaults(pl)
	s.Start("p", func(c *Context) {
		// wait(2) admits only EINTR injection and is never restarted.
		_, _, err := c.Wait()
		if !errors.Is(err, EINTR) || !errors.Is(err, ErrInterrupt) {
			t.Errorf("injected wait error %v: Is(EINTR)=%v Is(ErrInterrupt)=%v, want both", err, errors.Is(err, EINTR), errors.Is(err, ErrInterrupt))
		}
		if errors.Is(err, ErrNoChildren) {
			t.Errorf("injected wait error %v also matches ErrNoChildren", err)
		}
	})
	waitIdle(t, s)
	if pl.Injected(faultinject.SiteSyscallEnter) == 0 {
		t.Fatal("plan injected nothing at rate 1000")
	}
}

// TestSyscallAccountingConservation drives a share group and a forked
// process through a known syscall mix on all CPUs concurrently, then checks
// that the per-CPU accounting matrix conserves every issued call: sum over
// CPUs == calls the drivers counted themselves. Run under -race this also
// hammers the gateway's sharded counters.
func TestSyscallAccountingConservation(t *testing.T) {
	cfg := testConfig()
	s := NewSystem(cfg)

	var issuedGetpid, issuedOpen, issuedClose, issuedLseek atomic.Int64
	const workers = 6
	const rounds = 40

	s.Start("driver", func(c *Context) {
		worker := func(cc *Context, id int64) {
			for i := 0; i < rounds; i++ {
				cc.Getpid()
				issuedGetpid.Add(1)
				fd, err := cc.Open("/tmp", fs.ORead, 0)
				issuedOpen.Add(1)
				if err != nil {
					t.Errorf("worker %d: open: %v", id, err)
					return
				}
				cc.Lseek(fd, 0, fs.SeekSet)
				issuedLseek.Add(1)
				cc.Close(fd)
				issuedClose.Add(1)
			}
		}
		if err := c.Mkdir("/tmp", 0o777); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < workers/2; i++ {
			if _, err := c.Sproc("member", worker, proc.PRSALL, int64(i)); err != nil {
				t.Errorf("sproc: %v", err)
			}
		}
		for i := workers / 2; i < workers; i++ {
			id := int64(i)
			if _, err := c.Fork("kid", func(cc *Context) { worker(cc, id) }); err != nil {
				t.Errorf("fork: %v", err)
			}
		}
		for i := 0; i < workers; i++ {
			if _, _, err := c.Wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
		}
		worker(c, -1)
	})
	s.WaitIdle()

	matrix := s.SyscallCountsByCPU()
	if len(matrix) != cfg.NCPU+1 {
		t.Fatalf("matrix rows = %d, want NCPU+1 = %d", len(matrix), cfg.NCPU+1)
	}
	sum := func(n Sysno) int64 {
		var total int64
		for _, row := range matrix {
			total += row[n]
		}
		return total
	}
	for _, tc := range []struct {
		name   string
		num    Sysno
		issued int64
	}{
		{"getpid", SysGetpid, issuedGetpid.Load()},
		{"open", SysOpen, issuedOpen.Load()},
		{"lseek", SysLseek, issuedLseek.Load()},
		{"close", SysClose, issuedClose.Load()},
	} {
		if got := sum(tc.num); got != tc.issued {
			t.Errorf("%s: accounted %d calls, drivers issued %d", tc.name, got, tc.issued)
		}
	}

	// Stats() must agree with the raw matrix and carry nonzero latency.
	for _, st := range s.Stats().Syscalls {
		if got := sum(st.Num); got != st.Count {
			t.Errorf("%s: Stats count %d != matrix sum %d", st.Name, st.Count, got)
		}
		if st.Count > 0 && st.SimCyc <= 0 {
			t.Errorf("%s: %d calls accounted but zero simcyc", st.Name, st.Count)
		}
		if st.Count > 0 && st.CyclesPerCall() < float64(hwEntryExitFloor()) {
			t.Errorf("%s: %.0f cycles/call below the entry+exit floor", st.Name, st.CyclesPerCall())
		}
	}
}

// hwEntryExitFloor is the minimum possible in-kernel latency of any call:
// the trap and return costs alone.
func hwEntryExitFloor() int64 {
	s := NewSystem(Config{NCPU: 1, MemFrames: 64})
	return s.Machine.Cost.SyscallEntry + s.Machine.Cost.SyscallExit
}

// TestSyscallSpansMatch checks the trace contract: every EvSyscallEnter has
// a matching EvSyscallExit with the same syscall number, in order, per
// process — including calls that never return (exit(2), exec(2)) — and the
// exit event of a failing call carries the right errno.
func TestSyscallSpansMatch(t *testing.T) {
	cfg := testConfig()
	cfg.TraceEvents = 1 << 14
	s := NewSystem(cfg)

	s.Start("spans", func(c *Context) {
		c.Open("/missing", fs.ORead, 0) // ENOENT exit span
		done := make(chan struct{})
		c.Sproc("member", func(cc *Context, _ int64) {
			defer close(done)
			cc.Umask(0o027)
			cc.Getpid()
		}, proc.PRSALL, 0)
		<-done
		c.Getpid() // reconcile: sync runs inside this call's span
		c.Wait()
		c.Fork("execer", func(cc *Context) {
			cc.Exec("image2", func(c2 *Context) { c2.Getpid() })
		})
		c.Wait()
		c.Fork("exiter", func(cc *Context) { cc.Exit(3) })
		c.Wait()
	})
	s.WaitIdle()

	events, dropped := s.Machine.Trace.Snapshot()
	if dropped != 0 {
		t.Fatalf("ring dropped %d events; grow TraceEvents", dropped)
	}

	// Per-PID span matching. Syscalls never nest (delegating calls like
	// creat dispatch once, as the delegate), so within one process the
	// enter/exit events must strictly alternate with equal syscall numbers.
	open := map[int32]trace.Event{}
	inFlight := map[int32]bool{}
	enters, exits := 0, 0
	var sawENOENT bool
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvSyscallEnter:
			enters++
			if inFlight[ev.PID] {
				t.Fatalf("pid %d: nested enter of %s while %s in flight",
					ev.PID, SysName(Sysno(ev.Arg)), SysName(Sysno(open[ev.PID].Arg)))
			}
			inFlight[ev.PID] = true
			open[ev.PID] = ev
		case trace.EvSyscallExit:
			exits++
			if !inFlight[ev.PID] {
				t.Fatalf("pid %d: exit of %s with no open span", ev.PID, SysName(Sysno(ev.Arg)))
			}
			if open[ev.PID].Arg != ev.Arg {
				t.Fatalf("pid %d: enter %s closed by exit %s",
					ev.PID, SysName(Sysno(open[ev.PID].Arg)), SysName(Sysno(ev.Arg)))
			}
			inFlight[ev.PID] = false
			if Sysno(ev.Arg) == SysOpen && Errno(ev.Aux) == ENOENT {
				sawENOENT = true
			}
		}
	}
	for pid, in := range inFlight {
		if in {
			t.Errorf("pid %d: span %s never closed", pid, SysName(Sysno(open[pid].Arg)))
		}
	}
	if enters == 0 || enters != exits {
		t.Errorf("enter/exit events = %d/%d, want equal and nonzero", enters, exits)
	}
	if !sawENOENT {
		t.Error("no open exit span carried ENOENT")
	}
}

// TestFdTableGrowthAcrossShareBlock is the regression test for the
// descriptor-sync truncation bug: a member whose table grew past another
// member's must not lose descriptors when the smaller table synchronizes —
// the table grows to the block's length instead.
func TestFdTableGrowthAcrossShareBlock(t *testing.T) {
	s := NewSystem(testConfig())
	const nopen = proc.NFdInit + 8 // force growth past the initial table

	s.Start("grower", func(c *Context) {
		if err := c.Mkdir("/tmp", 0o777); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		done := make(chan struct{})
		if _, err := c.Sproc("opener", func(cc *Context, _ int64) {
			defer close(done)
			for i := 0; i < nopen; i++ {
				fd, err := cc.Open("/tmp", fs.ORead, 0)
				if err != nil {
					t.Errorf("opener: open %d: %v", i, err)
					return
				}
				if i == nopen-1 && fd < proc.NFdInit {
					t.Errorf("last fd = %d, want >= %d (table did not grow)", fd, proc.NFdInit)
				}
			}
		}, proc.PRSALL, 0); err != nil {
			t.Fatalf("sproc: %v", err)
		}
		<-done
		// Parent's table is still NFdInit long; its next kernel entry
		// must reconcile and GROW it, not silently drop fds >= NFdInit.
		if _, err := c.Lseek(nopen-1, 0, fs.SeekSet); err != nil {
			t.Errorf("parent lost synchronized fd %d: %v", nopen-1, err)
		}
		c.Wait()
	})
	s.WaitIdle()
}
