package proc

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fs"
)

func TestMaskString(t *testing.T) {
	cases := map[Mask]string{
		0:                "none",
		PRSADDR:          "PR_SADDR",
		PRSADDR | PRSFDS: "PR_SADDR|PR_SFDS",
		PRSALL:           "PR_SALL",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%#x.String() = %q, want %q", uint32(m), got, want)
		}
	}
}

func TestSyncBits(t *testing.T) {
	p := New(1, "t")
	if p.TakeSyncBits() != 0 {
		t.Fatal("fresh proc has sync bits")
	}
	p.SetSyncBits(FSyncFds | FSyncDir)
	p.SetSyncBits(FSyncUmask)
	got := p.TakeSyncBits()
	if got != FSyncFds|FSyncDir|FSyncUmask {
		t.Fatalf("TakeSyncBits = %#x", got)
	}
	if p.TakeSyncBits() != 0 {
		t.Fatal("bits not cleared by take")
	}
}

func TestSharesRequiresGroupAndBit(t *testing.T) {
	p := New(2, "t")
	p.SetShMask(PRSFDS)
	if p.Shares(PRSFDS) {
		t.Fatal("Shares true without group")
	}
	p.SetShare(fakeGroup{})
	if !p.Shares(PRSFDS) {
		t.Fatal("Shares false with group and bit")
	}
	if p.Shares(PRSDIR) {
		t.Fatal("Shares true for unshared bit")
	}
}

type fakeGroup struct{}

func (fakeGroup) SyncEntry(*Proc) {}
func (fakeGroup) Leave(*Proc)     {}
func (fakeGroup) Size() int       { return 1 }
func (fakeGroup) Gang() bool      { return false }

var fakeGroupAcct = NewCPUAcct()

func (fakeGroup) CPUAcct() *CPUAcct { return fakeGroupAcct }

func TestFdTable(t *testing.T) {
	f := fs.New()
	c := fs.Cred{Uid: 0, Cwd: f.Root(), Root: f.Root()}
	p := New(3, "t")
	file, err := f.Open(c, "/x", fs.OWrite|fs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p.Mu.Lock()
	defer p.Mu.Unlock()
	fd, err := p.AllocFd(file)
	if err != nil || fd != 0 {
		t.Fatalf("AllocFd = (%d,%v)", fd, err)
	}
	fd2, _ := p.AllocFd(file.Hold())
	if fd2 != 1 {
		t.Fatalf("second fd = %d", fd2)
	}
	got, err := p.GetFd(0)
	if err != nil || got != file {
		t.Fatalf("GetFd = (%v,%v)", got, err)
	}
	if _, err := p.GetFd(63); err != fs.ErrBadFd {
		t.Fatalf("GetFd empty slot: %v", err)
	}
	if _, err := p.GetFd(-1); err != fs.ErrBadFd {
		t.Fatalf("GetFd -1: %v", err)
	}
	if _, err := p.GetFd(1000); err != fs.ErrBadFd {
		t.Fatalf("GetFd oob: %v", err)
	}
	// Dup the table: refcounts bump.
	fds, _ := p.DupFdTable()
	if file.Ref() != 4 { // two fds + two dup'd copies
		t.Fatalf("ref = %d, want 4", file.Ref())
	}
	for _, d := range fds {
		if d != nil {
			d.Release()
		}
	}
	// Clear without release, then close all.
	cleared, _ := p.ClearFd(1)
	cleared.Release()
	if p.OpenFdCount() != 1 {
		t.Fatalf("open count = %d", p.OpenFdCount())
	}
	p.CloseAllFds()
	if p.OpenFdCount() != 0 {
		t.Fatal("CloseAllFds left descriptors")
	}
}

func TestFdTableFull(t *testing.T) {
	f := fs.New()
	c := fs.Cred{Uid: 0, Cwd: f.Root(), Root: f.Root()}
	p := New(4, "t")
	file, _ := f.Open(c, "/x", fs.OWrite|fs.OCreat, 0o644)
	p.Mu.Lock()
	defer p.Mu.Unlock()
	for i := 0; i < NOFILE; i++ {
		if _, err := p.AllocFd(file.Hold()); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := p.AllocFd(file); err != fs.ErrFdFull {
		t.Fatalf("overfull table: %v, want fs.ErrFdFull (EMFILE)", err)
	}
	p.CloseAllFds()
}

func TestSignalPendingAndMask(t *testing.T) {
	p := New(5, "t")
	if p.PendingSignal() != 0 {
		t.Fatal("signal on fresh proc")
	}
	p.Post(SIGUSR1)
	p.Post(SIGTERM)
	if s := p.PendingSignal(); s != SIGTERM { // lowest number first
		t.Fatalf("first = %d, want SIGTERM", s)
	}
	if s := p.PendingSignal(); s != SIGUSR1 {
		t.Fatalf("second = %d, want SIGUSR1", s)
	}
	if p.PendingSignal() != 0 {
		t.Fatal("queue not drained")
	}
	// Masked signals stay pending.
	p.SigMask = 1 << SIGUSR2
	p.Post(SIGUSR2)
	if p.PendingSignal() != 0 {
		t.Fatal("masked signal delivered")
	}
	p.SigMask = 0
	if p.PendingSignal() != SIGUSR2 {
		t.Fatal("unmasked signal lost")
	}
}

func TestSIGKILLUnmaskable(t *testing.T) {
	p := New(6, "t")
	p.SigMask = ^uint32(0)
	p.Post(SIGKILL)
	if !p.Killed.Load() {
		t.Fatal("Killed not latched")
	}
	if p.PendingSignal() != SIGKILL {
		t.Fatal("SIGKILL masked out")
	}
	if h, fatal := p.SignalAction(SIGKILL); h != nil || !fatal {
		t.Fatal("SIGKILL must be uncatchable and fatal")
	}
}

func TestSignalActions(t *testing.T) {
	p := New(7, "t")
	if _, fatal := p.SignalAction(SIGTERM); !fatal {
		t.Fatal("default SIGTERM not fatal")
	}
	if _, fatal := p.SignalAction(SIGCLD); fatal {
		t.Fatal("default SIGCLD fatal")
	}
	fired := 0
	p.SetHandler(SIGUSR1, func(sig int) { fired = sig })
	h, fatal := p.SignalAction(SIGUSR1)
	if h == nil || fatal {
		t.Fatal("handler not returned")
	}
	h(SIGUSR1)
	if fired != SIGUSR1 {
		t.Fatal("handler did not run")
	}
	p.SetHandler(SIGUSR1, nil)
	if h, _ := p.SignalAction(SIGUSR1); h != nil {
		t.Fatal("handler not reset")
	}
	// SIGKILL handler installation is refused.
	p.SetHandler(SIGKILL, func(int) {})
	if h, fatal := p.SignalAction(SIGKILL); h != nil || !fatal {
		t.Fatal("SIGKILL handler installed")
	}
}

// Every kernel sleep is a Block loop on its condition and SignalPending;
// Post's poke of the wake token is what ends it.
func TestPostInterruptsSleep(t *testing.T) {
	p := New(8, "t")
	done := make(chan struct{})
	go func() {
		for !p.SignalPending() {
			p.Block("pause")
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("sleep ended with no signal posted")
	case <-time.After(20 * time.Millisecond):
	}
	p.Post(SIGINT)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleep not interrupted by signal")
	}
	// With no sleeper the poke stays banked, and a second one is dropped
	// rather than blocking the poster.
	p.Post(SIGINT)
	p.Post(SIGINT)
	p.Block("banked")
}

func TestBlockUnblockStandalone(t *testing.T) {
	p := New(9, "t")
	done := make(chan struct{})
	go func() {
		p.Block("test")
		close(done)
	}()
	p.Unblock()
	<-done
	// Unblock before Block must also rendezvous.
	p.Unblock()
	p.Block("again")
}

func TestQuickSyncBitsIdempotent(t *testing.T) {
	f := func(bits []uint32) bool {
		p := New(10, "q")
		var want uint32
		for _, b := range bits {
			b &= FSyncAny
			p.SetSyncBits(b)
			want |= b
		}
		got := p.TakeSyncBits()
		return got == want && p.TakeSyncBits() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateTransitions(t *testing.T) {
	p := New(11, "t")
	if p.State() != SIdle {
		t.Fatalf("fresh state = %v", p.State())
	}
	for _, s := range []State{SReady, SRun, SSleep, SZomb} {
		p.SetState(s)
		if p.State() != s {
			t.Fatalf("state = %v, want %v", p.State(), s)
		}
	}
	if SZomb.String() != "zombie" || State(99).String() == "" {
		t.Fatal("state names")
	}
}

// A PR_SFDS member that syncs once per descriptor its group opens grows its
// table a slot at a time; that must not copy the table each time (it was
// 157 MB of a 176 MB serve_poll rep when the host interleaved accepts and
// syncs that finely).
func TestGrowFdAmortized(t *testing.T) {
	p := New(5, "t")
	p.FdMax = 10020
	p.Mu.Lock()
	defer p.Mu.Unlock()
	moves := 0
	for n := len(p.Fd) + 1; n <= p.FdMax+5; n++ {
		was := &p.Fd[0]
		p.GrowFd(n)
		if want := min(n, p.FdMax); len(p.Fd) != want || len(p.FdFlags) != want {
			t.Fatalf("GrowFd(%d): %d slots, %d flags, want %d", n, len(p.Fd), len(p.FdFlags), want)
		}
		if p.Fd[len(p.Fd)-1] != nil || p.FdFlags[len(p.Fd)-1] != 0 {
			t.Fatalf("GrowFd(%d): new slot not empty", n)
		}
		if &p.Fd[0] != was {
			moves++
		}
	}
	if cap(p.Fd) > p.FdMax || cap(p.FdFlags) != cap(p.Fd) {
		t.Fatalf("capacity %d / %d past the ceiling %d", cap(p.Fd), cap(p.FdFlags), p.FdMax)
	}
	if moves > 10 {
		t.Fatalf("table copied %d times growing a slot at a time to %d", moves, p.FdMax)
	}
}
