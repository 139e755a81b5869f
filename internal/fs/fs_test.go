package fs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/klock"
)

type nopThread struct{ ch chan struct{} }

func newNopThread() *nopThread      { return &nopThread{ch: make(chan struct{}, 1)} }
func (n *nopThread) Block(_ string) { <-n.ch }
func (n *nopThread) Unblock()       { n.ch <- struct{}{} }

func rootCred(f *FS) Cred {
	return Cred{Uid: 0, Gid: 0, Umask: 0o022, Cwd: f.Root(), Root: f.Root()}
}

const noLimit = int64(1) << 40

func TestCreateLookupReadWrite(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, err := f.Open(c, "/hello.txt", ORead|OWrite|OCreat, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	th := newNopThread()
	if n, err := file.Write(th, []byte("hello, world"), noLimit, false); n != 12 || err != nil {
		t.Fatalf("Write = (%d,%v)", n, err)
	}
	if _, err := file.Seek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := file.Read(th, buf, false)
	if err != nil || string(buf[:n]) != "hello, world" {
		t.Fatalf("Read = (%q,%v)", buf[:n], err)
	}
	st, err := f.StatPath(c, "/hello.txt")
	if err != nil || st.Size != 12 || st.Mode&TypeMask != ModeFile {
		t.Fatalf("Stat = (%+v,%v)", st, err)
	}
	// umask 022 on 0666 -> 0644
	if st.Mode&PermMask != 0o644 {
		t.Fatalf("perm = %o, want 644", st.Mode&PermMask)
	}
	file.Release()
}

func TestMkdirTreeAndRelativePaths(t *testing.T) {
	f := New()
	c := rootCred(f)
	mustMkdir := func(p string) {
		if _, err := f.Mkdir(c, p, 0o755); err != nil {
			t.Fatalf("Mkdir %s: %v", p, err)
		}
	}
	mustMkdir("/usr")
	mustMkdir("/usr/src")
	mustMkdir("/usr/src/uts")
	if _, err := f.Mkdir(c, "/usr", 0o755); err != ErrExist {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	// Relative resolution from /usr/src.
	cwd, _ := f.Lookup(c, "/usr/src")
	rel := c
	rel.Cwd = cwd
	if _, err := f.Lookup(rel, "uts"); err != nil {
		t.Fatalf("relative lookup: %v", err)
	}
	if ip, err := f.Lookup(rel, "../src/uts/../../src"); err != nil || ip != cwd {
		t.Fatalf("dotdot lookup = (%v,%v)", ip, err)
	}
	if _, err := f.Lookup(rel, "nope/deeper"); err != ErrNotExist {
		t.Fatalf("missing intermediate: %v", err)
	}
}

func TestChrootBarrier(t *testing.T) {
	f := New()
	c := rootCred(f)
	f.Mkdir(c, "/jail", 0o755)
	f.Mkdir(c, "/jail/inside", 0o755)
	f.Create(c, "/secret", 0o644)
	jail, _ := f.Lookup(c, "/jail")
	jc := Cred{Uid: 1, Gid: 1, Cwd: jail, Root: jail}
	// ".." from the jail root stays in the jail.
	if _, err := f.Lookup(jc, "../secret"); err != ErrNotExist {
		t.Fatalf("escape via ..: %v", err)
	}
	// Absolute paths resolve relative to the jail.
	if _, err := f.Lookup(jc, "/inside"); err != nil {
		t.Fatalf("absolute within jail: %v", err)
	}
	if _, err := f.Lookup(jc, "/secret"); err != ErrNotExist {
		t.Fatalf("jail leaked host root: %v", err)
	}
}

func TestPermissions(t *testing.T) {
	f := New()
	root := rootCred(f)
	f.Mkdir(root, "/home", 0o755)
	alice := Cred{Uid: 100, Gid: 10, Umask: 0o022, Cwd: f.Root(), Root: f.Root()}
	// Alice cannot create in a root-owned 755 directory.
	if _, err := f.Create(alice, "/home/x", 0o644); err != ErrPerm {
		t.Fatalf("create in read-only dir: %v", err)
	}
	// Give alice a home directory she owns.
	dir, _ := f.Mkdir(root, "/home/alice", 0o700)
	dir.Uid, dir.Gid = 100, 10
	if _, err := f.Create(alice, "/home/alice/notes", 0o600); err != nil {
		t.Fatalf("create in own dir: %v", err)
	}
	// Bob (other) can't search alice's 700 directory.
	bob := Cred{Uid: 200, Gid: 20, Cwd: f.Root(), Root: f.Root()}
	if _, err := f.Lookup(bob, "/home/alice/notes"); err != ErrPerm {
		t.Fatalf("bob searched alice's dir: %v", err)
	}
	// Group access: file 640, same gid reads, other doesn't.
	fi, _ := f.Create(alice, "/home/alice/shared", 0o666)
	fi.Mode = ModeFile | 0o640
	carol := Cred{Uid: 300, Gid: 10, Cwd: f.Root(), Root: f.Root()}
	dir.Mode = ModeDir | 0o755 // open the directory for search
	if err := fi.Access(carol.Uid, carol.Gid, 4); err != nil {
		t.Fatalf("group read denied: %v", err)
	}
	if err := fi.Access(bob.Uid, bob.Gid, 4); err != ErrPerm {
		t.Fatalf("other read allowed: %v", err)
	}
}

func TestUnlinkOpenFileKeepsData(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/tmpfile", ORead|OWrite|OCreat, 0o644)
	th := newNopThread()
	file.Write(th, []byte("still here"), noLimit, false)
	if err := f.Unlink(c, "/tmpfile"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup(c, "/tmpfile"); err != ErrNotExist {
		t.Fatal("unlinked file still visible")
	}
	file.Seek(0, SeekSet)
	buf := make([]byte, 16)
	n, _ := file.Read(th, buf, false)
	if string(buf[:n]) != "still here" {
		t.Fatalf("open unlinked file lost data: %q", buf[:n])
	}
	live := f.LiveInodes()
	file.Release()
	if f.LiveInodes() != live-1 {
		t.Fatal("inode storage not reclaimed after last close")
	}
}

func TestLinkSemantics(t *testing.T) {
	f := New()
	c := rootCred(f)
	f.Create(c, "/a", 0o644)
	if err := f.Link(c, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	ia, _ := f.Lookup(c, "/a")
	ib, _ := f.Lookup(c, "/b")
	if ia != ib {
		t.Fatal("link created a different inode")
	}
	if ia.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", ia.Nlink)
	}
	f.Unlink(c, "/a")
	if _, err := f.Lookup(c, "/b"); err != nil {
		t.Fatal("surviving link broken")
	}
	if ib.Nlink != 1 {
		t.Fatalf("nlink after unlink = %d", ib.Nlink)
	}
	if err := f.Link(c, "/b", "/b"); err != ErrExist {
		t.Fatalf("self link: %v", err)
	}
}

func TestUnlinkDirRules(t *testing.T) {
	f := New()
	c := rootCred(f)
	f.Mkdir(c, "/d", 0o755)
	f.Create(c, "/d/f", 0o644)
	if err := f.Unlink(c, "/d"); err != ErrNotEmpty {
		t.Fatalf("unlink non-empty dir: %v", err)
	}
	f.Unlink(c, "/d/f")
	if err := f.Unlink(c, "/d"); err != nil {
		t.Fatalf("unlink empty dir: %v", err)
	}
}

func TestSharedOffsetThroughDup(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/log", ORead|OWrite|OCreat, 0o644)
	dup := file.Hold()
	th := newNopThread()
	file.Write(th, []byte("one"), noLimit, false)
	dup.Write(th, []byte("two"), noLimit, false)
	if file.Offset() != 6 {
		t.Fatalf("offset = %d, want 6 (shared)", file.Offset())
	}
	dup.Release()
	file.Release()
}

func TestUlimitEnforced(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/big", OWrite|OCreat, 0o644)
	th := newNopThread()
	if _, err := file.Write(th, make([]byte, 100), 50, false); err != ErrFileLimit {
		t.Fatalf("ulimit write: %v", err)
	}
	if n, err := file.Write(th, make([]byte, 50), 50, false); n != 50 || err != nil {
		t.Fatalf("write at limit = (%d,%v)", n, err)
	}
	file.Release()
}

func TestAppendMode(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/app", OWrite|OCreat, 0o644)
	th := newNopThread()
	file.Write(th, []byte("start"), noLimit, false)
	file.Release()

	app, _ := f.Open(c, "/app", OWrite|OAppend, 0)
	app.Write(th, []byte("+end"), noLimit, false)
	app.Release()
	st, _ := f.StatPath(c, "/app")
	if st.Size != 9 {
		t.Fatalf("size = %d, want 9", st.Size)
	}
}

func TestOpenModes(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/x", OWrite|OCreat, 0o644)
	th := newNopThread()
	if _, err := file.Read(th, make([]byte, 4), false); err != ErrBadFd {
		t.Fatalf("read on write-only fd: %v", err)
	}
	file.Release()
	ro, _ := f.Open(c, "/x", ORead, 0)
	if _, err := ro.Write(th, []byte("no"), noLimit, false); err != ErrBadFd {
		t.Fatalf("write on read-only fd: %v", err)
	}
	ro.Release()
	if _, err := f.Open(c, "/", OWrite, 0); err != ErrIsDir {
		t.Fatalf("write-open of directory: %v", err)
	}
	if _, err := f.Open(c, "/missing", ORead, 0); err != ErrNotExist {
		t.Fatalf("open missing: %v", err)
	}
}

func TestOTruncClearsFile(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/t", OWrite|OCreat, 0o644)
	th := newNopThread()
	file.Write(th, []byte("old contents"), noLimit, false)
	file.Release()
	tr, _ := f.Open(c, "/t", OWrite|OTrunc, 0)
	tr.Release()
	st, _ := f.StatPath(c, "/t")
	if st.Size != 0 {
		t.Fatalf("size after O_TRUNC = %d", st.Size)
	}
}

func TestSeekRules(t *testing.T) {
	f := New()
	c := rootCred(f)
	file, _ := f.Open(c, "/s", ORead|OWrite|OCreat, 0o644)
	th := newNopThread()
	file.Write(th, []byte("0123456789"), noLimit, false)
	if off, _ := file.Seek(-3, SeekEnd); off != 7 {
		t.Fatalf("SeekEnd = %d", off)
	}
	if off, _ := file.Seek(1, SeekCur); off != 8 {
		t.Fatalf("SeekCur = %d", off)
	}
	if _, err := file.Seek(-1, SeekSet); err != ErrInval {
		t.Fatalf("negative seek: %v", err)
	}
	if _, err := file.Seek(0, 9); err != ErrInval {
		t.Fatalf("bad whence: %v", err)
	}
	// Sparse write past EOF zero-fills.
	file.Seek(20, SeekSet)
	file.Write(th, []byte("x"), noLimit, false)
	file.Seek(15, SeekSet)
	buf := make([]byte, 1)
	file.Read(th, buf, false)
	if buf[0] != 0 {
		t.Fatal("hole not zero-filled")
	}
	file.Release()
}

// Property: a random sequence of create/link/unlink keeps Nlink equal to the
// number of directory entries referring to each inode.
func TestQuickNlinkInvariant(t *testing.T) {
	f := New()
	c := rootCred(f)
	f.Mkdir(c, "/d", 0o755)
	names := []string{"/a", "/b", "/d/a", "/d/b", "/d/c"}
	check := func(ops []byte) bool {
		for _, op := range ops {
			n := names[int(op)%len(names)]
			m := names[int(op/8)%len(names)]
			switch op % 3 {
			case 0:
				f.Create(c, n, 0o644)
			case 1:
				f.Link(c, n, m)
			case 2:
				f.Unlink(c, n)
			}
		}
		// Count entries per inode.
		counts := map[*Inode]int32{}
		var walk func(dir *Inode)
		walk = func(dir *Inode) {
			for _, name := range dir.Entries() {
				dir.mu.Lock()
				ip := dir.dir[name]
				dir.mu.Unlock()
				if ip.IsDir() {
					counts[ip] += 2 // its own entry + its "."
					walk(ip)
				} else {
					counts[ip]++
				}
			}
		}
		walk(f.Root())
		for ip, want := range counts {
			got := ip.Nlink
			if ip.IsDir() {
				// Each child dir adds one to the parent (its "..").
				sub := 0
				for _, name := range ip.Entries() {
					ip.mu.Lock()
					child := ip.dir[name]
					ip.mu.Unlock()
					if child.IsDir() {
						sub++
					}
				}
				want += int32(sub)
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyFilesStress(t *testing.T) {
	f := New()
	c := rootCred(f)
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/f%03d", i)
		if _, err := f.Create(c, p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		if err := f.Unlink(c, fmt.Sprintf("/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ents := f.Root().Entries()
	if len(ents) != 100 {
		t.Fatalf("entries = %d, want 100", len(ents))
	}
}

func TestOpenCreatDoesNotTruncateExisting(t *testing.T) {
	// open(O_CREAT) without O_TRUNC must keep an existing file's
	// contents — the bug class this guards was found by a demo shell.
	f := New()
	c := rootCred(f)
	th := newNopThread()
	file, _ := f.Open(c, "/keep", OWrite|OCreat, 0o644)
	file.Write(th, []byte("precious"), noLimit, false)
	file.Release()

	again, err := f.Open(c, "/keep", OWrite|OCreat|OAppend, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	again.Write(th, []byte("+more"), noLimit, false)
	again.Release()
	st, _ := f.StatPath(c, "/keep")
	if st.Size != int64(len("precious+more")) {
		t.Fatalf("size = %d; O_CREAT truncated an existing file", st.Size)
	}
}

// wordStream is a minimal Pollable: readiness in an atomic word, waiters
// in a list, a transition notifying them after the word is stored.
type wordStream struct {
	ready   atomic.Uint32
	mu      sync.Mutex
	waiters []wordReg
}

type wordReg struct {
	w   *PollWaiter
	tag uint32
}

func (s *wordStream) Read(klock.Thread, []byte, bool) (int, error)  { return 0, ErrAgain }
func (s *wordStream) Write(klock.Thread, []byte, bool) (int, error) { return 0, ErrAgain }
func (s *wordStream) Close()                                        {}
func (s *wordStream) Ready() uint16                                 { return uint16(s.ready.Load()) }
func (s *wordStream) PollRegister(w *PollWaiter, tag uint32) {
	s.mu.Lock()
	s.waiters = append(s.waiters, wordReg{w, tag})
	s.mu.Unlock()
}
func (s *wordStream) PollUnregister(w *PollWaiter, tag uint32) {
	s.mu.Lock()
	for i, x := range s.waiters {
		if x == (wordReg{w, tag}) {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}
func (s *wordStream) set(m uint16) {
	s.mu.Lock()
	s.ready.Store(uint32(m))
	for _, r := range s.waiters {
		r.w.Notify(r.tag)
	}
	s.mu.Unlock()
}

// TestPollFileDelegation: an open file polls as its stream does, and a
// regular file — storage never blocks — is always ready in both directions
// and has no transitions to subscribe to.
func TestPollFileDelegation(t *testing.T) {
	f := New()
	reg, err := f.Open(rootCred(f), "/plain", ORead|OWrite|OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release()
	th := newNopThread()
	w := NewPollWaiter(th, 1)
	if m := reg.PollReady(); m != PollIn|PollOut {
		t.Errorf("regular file ready mask %#x, want PollIn|PollOut", m)
	}
	if reg.PollRegister(w, 0) {
		t.Error("regular file accepted a poll registration")
	}
	reg.PollUnregister(w, 0) // never registered: must be harmless

	s := &wordStream{}
	file := NewFile(nil, s, ORead|OWrite)
	defer file.Release()
	if m := file.PollReady(); m != 0 {
		t.Errorf("idle stream ready mask %#x, want 0", m)
	}
	if !file.PollRegister(w, 0) {
		t.Fatal("stream file refused a poll registration")
	}
	w.Arm()
	s.set(PollIn)
	if m := file.PollReady(); m != PollIn {
		t.Errorf("ready mask %#x after the transition, want PollIn", m)
	}
	if n := w.Notified.Load(); n != 1 {
		t.Errorf("waiter notified %d times, want 1", n)
	}
	select {
	case <-th.ch:
	default:
		t.Error("the transition deposited no wake for the waiter's thread")
	}
	file.PollUnregister(w, 0)
	w.Arm()
	s.set(PollIn | PollHup)
	if n := w.Notified.Load(); n != 1 {
		t.Errorf("withdrawn waiter notified again (%d)", n)
	}
}

// TestStandingWaiterProtocol walks a standing waiter through each
// interleaving of a stream's Notify with the poller's scan, Arm and Disarm,
// one step at a time: where the mark goes, whether a wake token is
// deposited, and whether the poller may sleep.
func TestStandingWaiterProtocol(t *testing.T) {
	th := newNopThread()
	w := NewPollWaiter(th, 130)
	if w.Words() != 3 {
		t.Fatalf("130 tags in %d words, want 3", w.Words())
	}
	token := func() bool {
		select {
		case <-th.ch:
			return true
		default:
			return false
		}
	}

	// Not armed: a transition leaves its mark and no wake token.
	w.BeginScan()
	if w.Notify(70) {
		t.Error("Notify on a disarmed waiter reports a delivered wake")
	}
	if token() || w.Notified.Load() != 0 {
		t.Error("a disarmed waiter was sent a wake token")
	}
	// The mark landed after the scan began: the poller must not sleep.
	if w.Arm() {
		t.Error("Arm lets the thread sleep over a mark made since BeginScan")
	}
	w.Disarm()
	// The next scan finds exactly that tag, once.
	w.BeginScan()
	if got := [3]uint64{w.TakeWord(0), w.TakeWord(1), w.TakeWord(2)}; got != [3]uint64{0, 1 << 6, 0} {
		t.Errorf("dirty words %#x after Notify(70), want bit 6 of word 1", got)
	}
	if w.TakeWord(1) != 0 {
		t.Error("TakeWord did not clear the word")
	}
	// The poller's own Mark (an entry still ready) does not stop a sleep:
	// only a stream's transition does.
	w.Mark(129)
	if !w.Arm() {
		t.Error("the poller's own mark kept it from sleeping")
	}
	// Armed: the first transition deposits the one token of this sleep,
	// the second only marks.
	if !w.Notify(3) || !token() {
		t.Error("Notify on an armed waiter deposited no wake token")
	}
	if w.Notify(4) || token() {
		t.Error("a second transition in one sleep deposited a second token")
	}
	if n := w.Notified.Load(); n != 1 {
		t.Errorf("Notified = %d after one delivered wake, want 1", n)
	}
	w.Disarm()
	if got := w.TakeWord(0); got != 1<<3|1<<4 {
		t.Errorf("word 0 = %#x, want tags 3 and 4", got)
	}
	if got := w.TakeWord(2); got != 1<<1 {
		t.Errorf("word 2 = %#x, want tag 129", got)
	}
	// A timeout's Wake ends an armed sleep and is nothing to a disarmed
	// waiter.
	w.Wake()
	if token() {
		t.Error("Wake sent a disarmed waiter a token")
	}
	w.BeginScan()
	w.Arm()
	w.Wake()
	if !token() {
		t.Error("Wake on an armed waiter deposited no token")
	}
}

// TestStandingWaiterStormRace races the two halves of the contract with
// nothing in between: a stream that publishes and notifies the moment its
// last transition was consumed, against a poller that takes the mark, loads,
// arms and sleeps. The notification lands anywhere in the poller's
// sequence — before the take, between the load and the Arm, after the Arm —
// and every one must end with the poller awake and the transition seen.
func TestStandingWaiterStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const rounds = 200000
			th := &tokenThread{ch: make(chan struct{}, 1)}
			w := NewPollWaiter(th, 1)
			var ready atomic.Uint32 // the stream's published mask
			var seen atomic.Int64
			done := make(chan struct{})
			go func() { // the poller
				defer close(done)
				for seen.Load() < rounds {
					w.BeginScan()
					w.TakeWord(0)
					if ready.Swap(0) != 0 {
						seen.Add(1)
						continue
					}
					if w.Arm() {
						th.Block("poll")
					}
					w.Disarm()
				}
			}()
			deadline := time.Now().Add(60 * time.Second)
			for i := 0; i < rounds; i++ { // the stream
				for spins := 1; ready.Load() != 0; spins++ {
					runtime.Gosched()
					if spins%4096 == 0 && time.Now().After(deadline) {
						t.Fatalf("poller asleep with the stream ready after %d of %d transitions", seen.Load(), rounds)
					}
				}
				ready.Store(1)
				w.Notify(0)
			}
			<-done
		})
	}
}

// tokenThread is the process layer's coalescing wake token: Unblock never
// blocks, and extra wakes collapse into one.
type tokenThread struct{ ch chan struct{} }

func (g *tokenThread) Block(string) { <-g.ch }
func (g *tokenThread) Unblock() {
	select {
	case g.ch <- struct{}{}:
	default:
	}
}
