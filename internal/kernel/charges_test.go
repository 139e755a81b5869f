package kernel

// The charge table: one deterministic script makes each kind of charged
// event the kernel has — each syscall in three sharing contexts, each fault
// class, each creation kind, ckpt(2), restore(2), poll(2) — and writes what
// each one charged on the sim meter, a row an event, to
// testdata/charges.golden. A change to what the kernel charges shows as a
// diff of that file; `go test ./internal/kernel -run TestChargeTableModel
// -update` rewrites it, and the diff is then a claim the change must name.

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/charges.golden from this run")

const chargesGolden = "testdata/charges.golden"

// TestChargeTableModel runs the script at each host level and requires the
// committed table from every run, byte for byte.
func TestChargeTableModel(t *testing.T) {
	want, err := os.ReadFile(chargesGolden)
	if *updateGolden {
		want = nil
	} else if err != nil {
		t.Fatal(err)
	}
	for _, procs := range hostLevels() {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := chargeTable(t)
			if want == nil {
				if err := os.WriteFile(chargesGolden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				want = got
			}
			w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
			for i := range min(len(w), len(g)) {
				if w[i] != g[i] {
					t.Errorf("%s:%d moved:\n-%s\n+%s", chargesGolden, i+1, w[i], g[i])
				}
			}
			if len(w) != len(g) {
				t.Errorf("%s has %d lines, the run %d", chargesGolden, len(w), len(g))
			}
		})
	}
}

// chargeLog collects the rows of one section; the script's processes add
// to it from their own goroutines.
type chargeLog struct {
	t    *testing.T
	mu   sync.Mutex
	rows []string
}

// measure runs call as c and records its row: the gateway's latency for
// syscall sys (- for none), what the caller's cycle counter and its CPU's
// moved by, their difference — what the kernel charged the CPU straight:
// faults, IPIs, syscall exit, the entry sync — the errno, and what the CPU
// was charged by entry, each count of which times the entry's price must sum
// to the CPU's cycles. The row is written by a deferred function, so a call
// that never returns (exit(2), exec(2)) is recorded as it unwinds. No event
// of the script yields its CPU, so the process must finish on the CPU it
// began on.
func (l *chargeLog) measure(c *Context, name string, sys Sysno, call func() error) {
	// The gateway's account of sys, summed over the CPUs.
	sysSimCyc := func() (cyc int64) {
		for _, a := range c.S.sysacct {
			cyc += a.simcyc[sys].Load()
		}
		return cyc
	}
	cpu, costs := c.cpu(), hw.AllCosts()
	sim, own, cyc := sysSimCyc(), c.P.Cycles.Load(), cpu.Cycles.Load()
	counts := make([]int64, len(costs))
	for i, cost := range costs {
		counts[i] = cpu.Count(cost)
	}
	var err error
	defer func() {
		if now := c.cpu(); now != cpu {
			l.t.Errorf("%s: the process moved from CPU %d to CPU %d", name, cpu.ID, now.ID)
		}
		simcyc := "-"
		if sys != sysNone {
			simcyc = fmt.Sprint(sysSimCyc() - sim)
		}
		caller, onCPU := c.P.Cycles.Load()-own, cpu.Cycles.Load()-cyc
		var charged []string
		var explained int64
		for i, cost := range costs {
			if n := cpu.Count(cost) - counts[i]; n != 0 {
				charged = append(charged, fmt.Sprintf("%v:%d", cost, n))
				explained += n * cost.Price()
			}
		}
		if explained != onCPU {
			l.t.Errorf("%s: the CPU moved by %d cycles, its counts %v explain %d", name, onCPU, charged, explained)
		}
		l.mu.Lock()
		l.rows = append(l.rows, fmt.Sprintf("%-38s %6s %6d %6d %6d  %v  %s", name, simcyc, caller, onCPU, onCPU-caller, ErrnoOf(err), strings.Join(charged, " ")))
		l.mu.Unlock()
	}()
	err = call()
}

// chargeSection is one section of a charge script: a heading and what it runs.
type chargeSection struct {
	name, config string
	run          func(*chargeLog)
}

// chargeTable runs every section of the script and renders the table.
func chargeTable(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString(`# What each event of the charge script costs on the sim meter.
# Regenerate: go test ./internal/kernel -run TestChargeTableModel -update
# A diff of this file is a claim about what the simulated kernel charges.
# Columns: event, simcyc (the gateway's latency for the call; - for a
# fault), caller (the process's cycle counter), cpu (its CPU's counter),
# kernel (cpu - caller: faults, IPIs, syscall exit and the entry sync,
# charged to the CPU straight), and the errno the call returned.
# Last, the CPU's count of each cost entry it was charged (entry:count);
# cpu is the sum of count × the entry's price (hw's cost table).
`)
	renderCharges(&b, t, []chargeSection{
		{"fault", "NCPU 4, TimeSlice 1<<40; the driver, a fork child, a member", faultCharges},
		{"create", "NCPU 4, TimeSlice 500; standard image, three open descriptors", createCharges},
		{"ckpt", "NCPU 4, TimeSlice 500; two parked members, 256 one-word pages and a dense one", ckptCharges},
		{"poll", "NCPU 1, TimeSlice 1<<40; n pipes, the last one made ready", pollCharges},
		{"sys", "NCPU 4, TimeSlice 1<<40; a fresh system a row", sysCharges},
	})
	return b.Bytes()
}

// renderCharges runs each section and writes its rows under its heading.
func renderCharges(b *bytes.Buffer, t *testing.T, secs []chargeSection) {
	for _, sec := range secs {
		l := &chargeLog{t: t}
		sec.run(l)
		fmt.Fprintf(b, "\n## %s: %s\n%s\n", sec.name, sec.config, strings.Join(l.rows, "\n"))
	}
}

// faultCharges: one event of each fault class, and the munmap whose
// shootdown interrupts the three other CPUs.
func faultCharges(l *chargeLog) {
	s := NewSystem(Config{NCPU: 4, MemFrames: 8192, TimeSlice: 1 << 40})
	s.Start("driver", func(c *Context) {
		const va = vm.DataBase
		l.measure(c, "zero fill", sysNone, func() error { return c.Store32(va, 1) })
		l.measure(c, "resident refill", sysNone, func() error {
			c.cpu().TLB.FlushPage(va.VPN(), c.P.ASID)
			return noErr(c.Load32(va))
		})
		c.Fork("child", func(cc *Context) {
			l.measure(cc, "first touch of a lazy clone", sysNone, func() error { return noErr(cc.Load32(va)) })
			l.measure(cc, "copy-on-write", sysNone, func() error { return cc.Store32(va, 2) })
		})
		c.Wait()
		m, _ := c.Mmap(8)
		for i := 0; i < 8; i++ {
			c.Store32(m+hw.VAddr(i*hw.PageSize), 1)
		}
		l.measure(c, "munmap of 8 pages", SysMunmap, func() error { return c.Munmap(m) })
		// The child's copy left the driver's frame one reference: the
		// store makes it writable where it is.
		l.measure(c, "upgrade in place", sysNone, func() error { return c.Store32(va, 3) })
		c.Sproc("member", func(cc *Context, _ int64) {
			l.measure(cc, "stack growth", sysNone, func() error { return cc.Store32(cc.StackBase(), 1) })
		}, proc.PRSALL, 0)
		c.Wait()
	})
	waitIdle(l.t, s)
}

// createCharges: every creating call, each child reaped before the next,
// so every sproc finds the same recycled stack range and the same
// one-member group; then the restore of a three-member image.
func createCharges(l *chargeLog) {
	noop := func(*Context, int64) {}
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		for _, path := range []string{"/a", "/b", "/c"} {
			c.Open(path, fs.ORead|fs.OWrite|fs.OCreat, 0o644)
		}
		create := func(name string, sys Sysno, call func() (int, error)) {
			l.measure(c, name, sys, func() error { return noErr(call()) })
			c.Wait()
		}
		create("fork", SysFork, func() (int, error) { return c.Fork("f", func(*Context) {}) })
		create("sproc(PR_SALL)", SysSproc, func() (int, error) { return c.Sproc("s", noop, proc.PRSALL, 0) })
		create("sproc(PR_SFDS)", SysSproc, func() (int, error) { return c.Sproc("s", noop, proc.PRSFDS, 0) })
		create("sproc(0)", SysSproc, func() (int, error) { return c.Sproc("s", noop, 0, 0) })
		create("thread_create", SysThreadCreate, func() (int, error) { return c.ThreadCreate("t", noop, 0) })
		create("fork by a member", SysFork, func() (int, error) { return c.Fork("f", func(*Context) {}) })
	})
	waitIdle(l.t, s)

	img := ckptImage(l.t)
	s = NewSystem(testConfig())
	s.Start("blank", func(c *Context) {
		l.measure(c, "restore of 3 members", SysRestore, func() error { return noErr(c.Restore(img, noop)) })
		for range 2 {
			c.Wait()
		}
	})
	waitIdle(l.t, s)
}

// ckptImage is runCkptWorkload's image of a driver and two members.
func ckptImage(t *testing.T) *ckpt.Image {
	enc, _, _ := runCkptWorkload(t, 2, 1, false)
	img, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return img
}

// ckptCharges: a checkpoint and a restore in BenchmarkCkptRoundTrip's
// shape. The restored group, its members parked again, must re-checkpoint
// to an image that diffs empty.
func ckptCharges(l *chargeLog) {
	const pages = 256
	park := func(cc *Context, _ int64) { cc.Blockproc(0) }
	release := func(c *Context) {
		for _, pid := range parkedMembers(c) {
			c.Unblockproc(pid)
			c.Wait()
		}
	}

	var img *ckpt.Image
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		va, _ := c.Mmap(pages + 1)
		for pg := 0; pg < pages; pg++ {
			c.Store32(va+hw.VAddr(pg*hw.PageSize), uint32(pg)+1)
		}
		dense := make([]byte, hw.PageSize)
		rand.New(rand.NewSource(1988)).Read(dense)
		c.StoreBytes(va+pages*hw.PageSize, dense)
		for i := range 2 {
			c.Sproc("parked", park, proc.PRSALL, int64(i))
		}
		parkedMembers(c)
		l.measure(c, "ckpt", SysCkpt, func() (err error) {
			img, _, err = c.Ckpt(CkptOpts{Passes: 1})
			return err
		})
		release(c)
	})
	waitIdle(l.t, s)
	if img == nil {
		l.t.Fatal("no image")
	}
	dec, err := ckpt.Decode(img.Encode())
	if err != nil {
		l.t.Fatalf("decode: %v", err)
	}

	s = NewSystem(testConfig())
	s.Start("adoptive", func(c *Context) {
		l.measure(c, "restore", SysRestore, func() error { return noErr(c.Restore(dec, park)) })
		parkedMembers(c)
		if re, _, err := c.Ckpt(CkptOpts{Passes: 1}); err != nil {
			l.t.Errorf("re-checkpoint: %v", err)
		} else if d := ckpt.Diff(dec, re, ckpt.DiffOpts{IgnorePIDs: true}); len(d) != 0 {
			l.t.Errorf("the restored group re-checkpoints to a different image: %s", strings.Join(d, "; "))
		}
		release(c)
	})
	waitIdle(l.t, s)
}

// pollCharges: poll(2) over 1, 8, 9 and 1 000 descriptors by each way a
// call can go — ready at the first scan, nothing ready with timeout 0, one
// sleep ended by a child's write. On one CPU the child runs exactly while
// the caller sleeps.
func pollCharges(l *chargeLog) {
	for _, n := range []int{1, 8, 9, 1000} {
		s := NewSystem(Config{NCPU: 1, MemFrames: 8192, TimeSlice: 1 << 40, MaxFiles: 2100})
		s.Start("poller", func(c *Context) {
			set, wfds, _ := pollPipes(c, n)
			last := wfds[n-1]
			poll := func(name string, timeout, want int) {
				l.measure(c, fmt.Sprintf("poll n=%d %s", n, name), SysPoll, func() error {
					got, err := c.Poll(set, timeout)
					if err == nil && got != want {
						l.t.Errorf("n=%d %s: %d ready, want %d", n, name, got, want)
					}
					return err
				})
			}
			// The last entry is the ready one, so the subscribing scan
			// covers the whole set.
			c.WriteString(last, vm.DataBase, "x")
			poll("ready at entry", -1, 1)
			c.Read(set[n-1].Fd, vm.DataBase, 1)
			poll("idle, timeout 0", 0, 0)
			sleeps := s.Stats().PollSleeps
			c.Fork("writer", func(cc *Context) { cc.WriteString(last, vm.DataBase, "x") })
			poll("one sleep then ready", -1, 1)
			if d := s.Stats().PollSleeps - sleeps; d != 1 {
				l.t.Errorf("n=%d: the sleeping call slept %d times, want 1", n, d)
			}
			c.Wait()
		})
		waitIdle(l.t, s)
	}
}

// offScriptTable runs what charges the entries the golden script never
// does: long copies, spins, a paced checkpoint that must wait for a running
// member to park, and what only fault injection charges.
func offScriptTable(t *testing.T) []byte {
	var b bytes.Buffer
	renderCharges(&b, t, []chargeSection{
		{"copy and spin", "NCPU 1, TimeSlice 1<<40", copySpinCharges},
		{"paced ckpt", "NCPU 1, TimeSlice 500; a member looping on getpid", pacedCkptCharges},
		{"injected", "NCPU 1, TimeSlice 500; one site armed at rate 1000 a row", injectedCharges},
	})
	return b.Bytes()
}

// copySpinCharges: a page stored and loaded in bulk, and one round of a
// bounded spin on a word nobody writes.
func copySpinCharges(l *chargeLog) {
	s := NewSystem(Config{NCPU: 1, MemFrames: 1024, TimeSlice: 1 << 40})
	s.Start("driver", func(c *Context) {
		page := make([]byte, hw.PageSize)
		c.Store32(vm.DataBase, 0)
		l.measure(c, "store a page", sysNone, func() error { return c.StoreBytes(vm.DataBase, page) })
		l.measure(c, "load a page", sysNone, func() error { return c.LoadBytes(vm.DataBase, page) })
		l.measure(c, "spin one round", sysNone, func() error {
			_, _, err := c.SpinWaitBounded(vm.DataBase, func(v uint32) bool { return v != 0 }, 1)
			return err
		})
	})
	waitIdle(l.t, s)
}

// pacedCkptCharges: a two-pass checkpoint with a gap between its passes,
// whose freeze must wait until the member, runnable behind the driver,
// reaches a safepoint.
func pacedCkptCharges(l *chargeLog) {
	s := NewSystem(Config{NCPU: 1, MemFrames: 1024, TimeSlice: 500})
	s.Start("driver", func(c *Context) {
		const stop = vm.DataBase
		c.Store32(stop, 0)
		c.Sproc("looper", func(cc *Context, _ int64) {
			for v, err := cc.Load32(stop); v == 0 && err == nil; v, err = cc.Load32(stop) {
				cc.Getpid()
			}
		}, proc.PRSALL, 0)
		l.measure(c, "ckpt, 2 passes 1024 cycles apart", SysCkpt, func() error {
			_, _, err := c.Ckpt(CkptOpts{Passes: 2, PassGap: 1024})
			return err
		})
		c.Store32(stop, 1)
		c.Wait()
	})
	waitIdle(l.t, s)
}

// injectedCharges: a checkpoint whose every pass boundary is injected —
// delays, and aborts the gateway retries with its backoff — and a fork and
// wait whose every dispatch stalls.
func injectedCharges(l *chargeLog) {
	inject := func(site faultinject.Site, run func(c *Context, arm func())) {
		s := NewSystem(Config{NCPU: 1, MemFrames: 1024, TimeSlice: 500})
		pl := faultinject.New(1988, 0)
		s.ArmFaults(pl)
		s.Start("driver", func(c *Context) { run(c, func() { pl.SetRate(site, 1000) }) })
		waitIdle(l.t, s)
	}
	inject(faultinject.SiteCkpt, func(c *Context, arm func()) {
		c.Sproc("parked", func(cc *Context, _ int64) { cc.Blockproc(0) }, proc.PRSALL, 0)
		parked := parkedMembers(c)
		arm()
		l.measure(c, "ckpt, every pass boundary injected", SysCkpt, func() error {
			_, _, err := c.Ckpt(CkptOpts{Passes: 2})
			return err
		})
		c.Unblockproc(parked[0])
		c.Wait()
	})
	inject(faultinject.SiteDispatch, func(c *Context, arm func()) {
		arm()
		l.measure(c, "fork and wait, every dispatch stalled", sysNone, func() error {
			if _, err := c.Fork("child", func(*Context) {}); err != nil {
				return err
			}
			_, _, err := c.Wait()
			return err
		})
	})
}

func noErr[T any](_ T, err error) error { return err }

// sysCase sets up what one syscall needs, as the caller and unmeasured,
// and hands the call to run, which measures it.
type sysCase func(c *Context, run func(call func() error))

// sysCases holds a case for each number of sysTable: a descriptor to
// close, a message to receive, a zombie to reap, a banked unblock for
// blockproc to consume.
func sysCases(img *ckpt.Image) [NSys]sysCase {
	const buf = vm.DataBase
	rw := fs.ORead | fs.OWrite | fs.OCreat
	open := func(c *Context) int { fd, _ := c.Open("/f", rw, 0o644); return fd }
	ready := func(c *Context) int { r, w, _ := c.Pipe(); c.WriteString(w, buf, "x"); return r }
	noop := func(*Context, int64) {}
	handle := func(c *Context) { c.Signal(proc.SIGUSR1, func(int) {}) }
	msg := func(c *Context) int { id := c.Msgget(1); c.Msgsnd(id, 1, buf, 8); return id }
	dialed := func(c *Context) int { lfd, _ := c.NetListen("svc"); c.NetConnect("svc"); return lfd }
	// A child wait(2) reaps without sleeping: reap marks it SZomb before it
	// closes Exited, which is what wait reads, so settle on Exited itself.
	zombie := func(c *Context) {
		pid, _ := c.Fork("child", func(*Context) {})
		child, _ := c.S.Lookup(pid)
		for {
			select {
			case <-child.Exited:
				return
			default:
			}
			c.Getpid()
			runtime.Gosched()
		}
	}
	type run = func(func() error)
	return [NSys]sysCase{
		SysOpen:    func(c *Context, m run) { m(func() error { return noErr(c.Open("/f", rw, 0o644)) }) },
		SysClose:   func(c *Context, m run) { fd := open(c); m(func() error { return c.Close(fd) }) },
		SysDup:     func(c *Context, m run) { fd := open(c); m(func() error { return noErr(c.Dup(fd)) }) },
		SysDup2:    func(c *Context, m run) { fd := open(c); m(func() error { return noErr(c.Dup2(fd, 10)) }) },
		SysFcntl:   func(c *Context, m run) { fd := open(c); m(func() error { return c.SetCloseOnExec(fd, true) }) },
		SysRead:    func(c *Context, m run) { r := ready(c); m(func() error { return noErr(c.Read(r, buf, 1)) }) },
		SysWrite:   func(c *Context, m run) { _, w, _ := c.Pipe(); m(func() error { return noErr(c.Write(w, buf, 1)) }) },
		SysLseek:   func(c *Context, m run) { fd := open(c); m(func() error { return noErr(c.Lseek(fd, 0, 0)) }) },
		SysMkdir:   func(c *Context, m run) { m(func() error { return c.Mkdir("/d", 0o755) }) },
		SysUnlink:  func(c *Context, m run) { c.Close(open(c)); m(func() error { return c.Unlink("/f") }) },
		SysLink:    func(c *Context, m run) { c.Close(open(c)); m(func() error { return c.Link("/f", "/g") }) },
		SysStat:    func(c *Context, m run) { m(func() error { return noErr(c.Stat("/")) }) },
		SysChdir:   func(c *Context, m run) { c.Mkdir("/d", 0o755); m(func() error { return c.Chdir("/d") }) },
		SysChroot:  func(c *Context, m run) { m(func() error { return c.Chroot("/") }) },
		SysUmask:   func(c *Context, m run) { m(func() error { c.Umask(0o022); return nil }) },
		SysUlimit:  func(c *Context, m run) { lim, _ := c.Ulimit(1, 0); m(func() error { return noErr(c.Ulimit(2, lim)) }) },
		SysSetuid:  func(c *Context, m run) { m(func() error { return c.Setuid(0) }) },
		SysSetgid:  func(c *Context, m run) { m(func() error { return c.Setgid(0) }) },
		SysGetuid:  func(c *Context, m run) { m(func() error { c.Getuid(); return nil }) },
		SysBrk:     func(c *Context, m run) { m(func() error { c.Brk(); return nil }) },
		SysSbrk:    func(c *Context, m run) { m(func() error { return noErr(c.Sbrk(hw.PageSize)) }) },
		SysMmap:    func(c *Context, m run) { m(func() error { return noErr(c.Mmap(1)) }) },
		SysMunmap:  func(c *Context, m run) { va, _ := c.Mmap(1); c.Store32(va, 1); m(func() error { return c.Munmap(va) }) },
		SysPipe:    func(c *Context, m run) { m(func() error { _, _, err := c.Pipe(); return err }) },
		SysMsgget:  func(c *Context, m run) { m(func() error { c.Msgget(1); return nil }) },
		SysMsgsnd:  func(c *Context, m run) { id := c.Msgget(1); m(func() error { return c.Msgsnd(id, 1, buf, 8) }) },
		SysSemget:  func(c *Context, m run) { m(func() error { c.Semget(1, 1); return nil }) },
		SysSemop:   func(c *Context, m run) { id := c.Semget(1, 1); m(func() error { return c.Semop(id, 0, 1) }) },
		SysShmget:  func(c *Context, m run) { m(func() error { c.Shmget(1, 1); return nil }) },
		SysShmat:   func(c *Context, m run) { id := c.Shmget(1, 1); m(func() error { return noErr(c.Shmat(id)) }) },
		SysGetpid:  func(c *Context, m run) { m(func() error { c.Getpid(); return nil }) },
		SysFork:    func(c *Context, m run) { m(func() error { return noErr(c.Fork("child", func(*Context) {})) }) },
		SysSproc:   func(c *Context, m run) { m(func() error { return noErr(c.Sproc("child", noop, proc.PRSALL, 0)) }) },
		SysPrctl:   func(c *Context, m run) { m(func() error { return noErr(c.Prctl(PRGetStackSize, 0)) }) },
		SysUnshare: func(c *Context, m run) { m(func() error { return c.Unshare(proc.PRSUMASK) }) },
		SysExec:    func(c *Context, m run) { m(func() error { return c.Exec("image", func(*Context) {}) }) },
		SysExit:    func(c *Context, m run) { m(func() error { c.Exit(0); return nil }) },
		SysKill:    func(c *Context, m run) { handle(c); m(func() error { return c.Kill(c.P.PID, proc.SIGUSR1) }) },
		SysSignal:  func(c *Context, m run) { m(func() error { handle(c); return nil }) },
		SysSigmask: func(c *Context, m run) { m(func() error { c.sigmask(0); return nil }) },
		// A signal posted before the call: pause returns at once.
		SysPause:     func(c *Context, m run) { handle(c); c.P.Post(proc.SIGUSR1); m(c.Pause) },
		SysSetshares: func(c *Context, m run) { m(func() error { return c.Setshares(GroupLimits{}) }) },
		SysGetusage:  func(c *Context, m run) { m(func() error { return noErr(c.Getusage()) }) },
		// A banked unblock: the block returns at once.
		SysBlockproc:       func(c *Context, m run) { c.Unblockproc(c.P.PID); m(func() error { return c.Blockproc(0) }) },
		SysUnblockproc:     func(c *Context, m run) { m(func() error { return c.Unblockproc(c.P.PID) }) },
		SysSetblockproccnt: func(c *Context, m run) { m(func() error { return c.Setblockproccnt(c.P.PID, 0) }) },
		SysMmapPrivate:     func(c *Context, m run) { m(func() error { return noErr(c.MmapPrivate(1)) }) },
		SysMsgrcv: func(c *Context, m run) {
			id := msg(c)
			m(func() error { _, _, err := c.Msgrcv(id, 0, buf, 64); return err })
		},
		SysShmRemove:  func(c *Context, m run) { id := c.Shmget(1, 1); m(func() error { return c.ShmRemove(id) }) },
		SysNetListen:  func(c *Context, m run) { m(func() error { return noErr(c.NetListen("svc")) }) },
		SysNetAccept:  func(c *Context, m run) { lfd := dialed(c); m(func() error { return noErr(c.NetAccept(lfd)) }) },
		SysNetConnect: func(c *Context, m run) { c.NetListen("svc"); m(func() error { return noErr(c.NetConnect("svc")) }) },
		SysPoll: func(c *Context, m run) {
			r := ready(c)
			m(func() error { return noErr(c.Poll([]PollFd{{r, PollIn, 0}}, 0)) })
		},
		SysThreadCreate: func(c *Context, m run) { m(func() error { return noErr(c.ThreadCreate("child", noop, 0)) }) },
		SysWait:         func(c *Context, m run) { zombie(c); m(func() error { _, _, err := c.Wait(); return err }) },
		SysCkpt:         func(c *Context, m run) { m(func() error { _, _, err := c.Ckpt(CkptOpts{Passes: 1}); return err }) },
		SysRestore:      func(c *Context, m run) { m(func() error { return noErr(c.Restore(img, noop)) }) },
	}
}

// sysCharges runs every syscall in three contexts: alone; as a member of a
// two-member PR_SALL group; and as a member of a four-member group that
// enters with every sync bit set, as if another member had just changed
// each shared attribute. Each row boots a fresh system: a driver forks the
// caller and sleeps in wait(2), the caller sprocs the other members, which
// park in blockproc, and only the caller runs while it is measured. The
// driver then unparks whatever the caller left behind.
func sysCharges(l *chargeLog) {
	cases := sysCases(ckptImage(l.t))
	for n := Sysno(1); n < NSys; n++ {
		if cases[n] == nil {
			l.t.Fatalf("no case for %s", SysName(n))
		}
		for _, members := range []int{1, 2, 4} {
			s := NewSystem(Config{NCPU: 4, MemFrames: 1024, TimeSlice: 1 << 40})
			s.Start("driver", func(d *Context) {
				d.Fork("caller", func(c *Context) {
					c.Store32(vm.DataBase, 1) // the buffer page, resident
					for range members - 1 {
						pid, _ := c.Sproc("parked", func(cc *Context, _ int64) { cc.Blockproc(0) }, proc.PRSALL, 0)
						settle(c, pid, proc.SSleep, blockprocReason)
					}
					settle(c, d.P.PID, proc.SSleep, "") // the driver sleeps only in wait(2)
					cases[n](c, func(call func() error) {
						if members == 4 {
							c.P.SetSyncBits(proc.FSyncAny)
						}
						l.measure(c, SysName(n)+" "+map[int]string{1: "solo", 2: "pair", 4: "quad+sync"}[members], n, call)
					})
				})
				d.Wait()
				for _, p := range d.S.Procs() {
					if p != d.P {
						d.Unblockproc(p.PID)
					}
				}
			})
			waitIdle(l.t, s)
		}
	}
}

// settle makes kernel crossings, yielding the host between them, until
// process pid is in state st, having last slept for reason if one is given.
func settle(c *Context, pid int, st proc.State, reason string) {
	for {
		p, ok := c.S.Lookup(pid)
		if !ok || p.State() == st && (reason == "" || p.LastSleep.Load() == reason) {
			return
		}
		c.Getpid()
		runtime.Gosched()
	}
}
