package kernel

// Tests for the gateway's SA_RESTART-style degradation policy: a signal
// that interrupts a blocking syscall either transparently restarts the
// call (restartable class: read, write, semop, msgsnd/rcv, accept) or
// surfaces as EINTR (non-restartable class: wait, pause), and a fatal
// signal always terminates the call instead of looping.

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/proc"
	"repro/internal/vm"
)

func TestRestartTable(t *testing.T) {
	has := func(n Sysno, flag uint8) bool { return sysTable[n].flags&flag != 0 }
	restartable := []Sysno{SysRead, SysWrite, SysMsgsnd, SysMsgrcv, SysSemop, SysNetAccept, SysNetConnect}
	for _, n := range restartable {
		if !has(n, sfRestart) {
			t.Errorf("%s is not restartable, want restartable", SysName(n))
		}
	}
	notRestartable := []Sysno{SysWait, SysPause, SysOpen, SysFork, SysExit}
	for _, n := range notRestartable {
		if has(n, sfRestart) {
			t.Errorf("%s is restartable, want not", SysName(n))
		}
	}
	for _, n := range []Sysno{SysFork, SysSproc, SysThreadCreate} {
		if !has(n, sfRetry) {
			t.Errorf("%s is not retryable, want retryable", SysName(n))
		}
	}
	if has(SysRead, sfRetry) {
		t.Error("read is retryable, want not")
	}
}

// A caught signal landing in a blocked pipe read must run the handler and
// transparently restart the read — the caller sees the data, not EINTR.
func TestPipeReadRestartsAfterSignal(t *testing.T) {
	s := NewSystem(testConfig())
	base := s.restarts.Load()
	var handlerRuns atomic.Int64
	s.Start("parent", func(c *Context) {
		rfd, wfd, err := c.Pipe()
		if err != nil {
			t.Fatalf("Pipe: %v", err)
		}
		pid, _ := c.Fork("reader", func(cc *Context) {
			cc.Signal(proc.SIGUSR1, func(int) { handlerRuns.Add(1) })
			got, err := cc.ReadString(rfd, vm.DataBase, 16)
			if err != nil || got != "restarted" {
				t.Errorf("read after signal = (%q, %v), want (\"restarted\", nil)", got, err)
			}
		})
		// Keep signalling until the gateway has observed at least one
		// EINTR restart — a single signal could be consumed at the
		// Signal() syscall's own exit, before the read ever blocks.
		for s.restarts.Load() == base {
			if err := c.Kill(pid, proc.SIGUSR1); err != nil {
				t.Fatalf("kill: %v", err)
			}
		}
		if _, err := c.WriteString(wfd, vm.DataBase, "restarted"); err != nil {
			t.Fatalf("write: %v", err)
		}
		c.Wait()
	})
	waitIdle(t, s)
	if s.restarts.Load() == base {
		t.Error("no restart recorded")
	}
	if handlerRuns.Load() == 0 {
		t.Error("handler never ran")
	}
	if st := s.Stats(); st.SyscallRestarts == 0 {
		t.Error("Stats().SyscallRestarts = 0")
	}
}

// Same policy for semop: interrupted P-operations restart and eventually
// succeed once the V arrives.
func TestSemopRestartsAfterSignal(t *testing.T) {
	s := NewSystem(testConfig())
	base := s.restarts.Load()
	s.Start("parent", func(c *Context) {
		id := c.Semget(7, 1)
		pid, _ := c.Fork("waiter", func(cc *Context) {
			cc.Signal(proc.SIGUSR1, func(int) {})
			if err := cc.Semop(id, 0, -1); err != nil {
				t.Errorf("semop after signal = %v, want nil", err)
			}
		})
		for s.restarts.Load() == base {
			if err := c.Kill(pid, proc.SIGUSR1); err != nil {
				t.Fatalf("kill: %v", err)
			}
		}
		if err := c.Semop(id, 0, 1); err != nil {
			t.Fatalf("semop +1: %v", err)
		}
		c.Wait()
	})
	waitIdle(t, s)
	if s.restarts.Load() == base {
		t.Error("no restart recorded")
	}
}

// wait(2) is NOT restartable: a signal that is not SIGCLD interrupts it
// and the caller sees EINTR.
func TestWaitInterruptedReturnsEINTR(t *testing.T) {
	s := NewSystem(testConfig())
	var sawEINTR atomic.Bool
	s.Start("parent", func(c *Context) {
		c.Signal(proc.SIGUSR1, func(int) {})
		rfd, wfd, err := c.Pipe()
		if err != nil {
			t.Fatalf("Pipe: %v", err)
		}
		ppid := c.Getpid()
		c.Fork("signaller", func(cc *Context) {
			for !sawEINTR.Load() {
				if err := cc.Kill(ppid, proc.SIGUSR1); err != nil {
					t.Errorf("kill: %v", err)
					return
				}
			}
			// Parked until the parent has seen its EINTR.
			cc.Read(rfd, vm.DataBase, 1)
		})
		_, _, err = c.Wait()
		if !errors.Is(err, ErrInterrupt) || !errors.Is(err, EINTR) {
			t.Errorf("Wait = %v, want EINTR", err)
		}
		if ErrnoOf(err) == EINTR {
			sawEINTR.Store(true)
		}
		if _, err := c.WriteString(wfd, vm.DataBase, "x"); err != nil {
			t.Fatalf("release write: %v", err)
		}
		// A straggler signal may interrupt the reap too; retry.
		for {
			if _, _, err := c.Wait(); err == nil {
				break
			} else if !errors.Is(err, EINTR) {
				t.Fatalf("reap: %v", err)
			}
		}
	})
	waitIdle(t, s)
	if !sawEINTR.Load() {
		t.Error("wait(2) never returned EINTR")
	}
}

// A fatal signal must terminate a restartable call, not restart it: the
// SA_RESTART loop delivers the signal, and an unhandled SIGKILL unwinds
// the process.
func TestFatalSignalBreaksRestartableRead(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		rfd, _, err := c.Pipe()
		if err != nil {
			t.Fatalf("Pipe: %v", err)
		}
		pid, _ := c.Fork("reader", func(cc *Context) {
			cc.Read(rfd, vm.DataBase, 1) // blocks forever: no writer writes
			t.Error("reader survived SIGKILL")
		})
		for i := 0; i < 50; i++ {
			c.Getpid() // give the reader time to block
		}
		c.Kill(pid, proc.SIGKILL)
		_, status, err := c.Wait()
		if err != nil || status != 128+proc.SIGKILL {
			t.Errorf("Wait = (status %d, %v), want status %d", status, err, 128+proc.SIGKILL)
		}
	})
	waitIdle(t, s)
}
