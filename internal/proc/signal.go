package proc

// Signal numbers (the System V set we model).
const (
	SIGHUP  = 1
	SIGINT  = 2
	SIGQUIT = 3
	SIGKILL = 9
	SIGSEGV = 11
	SIGPIPE = 13
	SIGALRM = 14
	SIGTERM = 15
	SIGUSR1 = 16
	SIGUSR2 = 17
	SIGCLD  = 18

	NSig = 32
)

// Handler is a user signal handler. The kernel invokes it on the signalled
// process's own execution context, at kernel exit — normal UNIX semantics,
// which the paper insists share groups must preserve ("signals, system
// calls, traps and other process events should happen in an expected
// way").
type Handler func(sig int)

// defaultFatal reports whether sig's default action terminates.
func defaultFatal(sig int) bool {
	switch sig {
	case SIGCLD:
		return false
	default:
		return true
	}
}

// Post marks sig pending on p and pokes p's wake token so a kernel sleep
// in progress notices it promptly (read on a pty, pause, wait — the slow
// operations of paper §6). Every kernel sleep is a loop around Block: the
// poke makes it wake, re-check its condition and SignalPending, and return
// EINTR or sleep again. A stale token costs at most one tolerated spurious
// wake.
func (p *Proc) Post(sig int) {
	if sig <= 0 || sig >= NSig {
		return
	}
	if sig == SIGKILL {
		p.Killed.Store(true)
	}
	for {
		old := p.SigPending.Load()
		if p.SigPending.CompareAndSwap(old, old|1<<uint(sig)) {
			break
		}
	}
	p.NotifyWake()
}

// SignalPending implements klock.Interruptible: it reports whether any
// deliverable signal is pending.
func (p *Proc) SignalPending() bool { return p.UnmaskedPending(0) }

// UnmaskedPending reports whether any deliverable signal is pending,
// optionally ignoring the signals in ignore (a bitmask).
func (p *Proc) UnmaskedPending(ignore uint32) bool {
	pend := p.SigPending.Load()
	avail := pend&^p.SigMask | pend&(1<<SIGKILL)
	return avail&^ignore != 0
}

// PendingSignal dequeues the lowest pending, unmasked signal, or 0.
// SIGKILL cannot be masked.
func (p *Proc) PendingSignal() int {
	for {
		old := p.SigPending.Load()
		avail := old &^ p.SigMask
		avail |= old & (1 << SIGKILL)
		if avail == 0 {
			return 0
		}
		sig := 0
		for s := 1; s < NSig; s++ {
			if avail&(1<<uint(s)) != 0 {
				sig = s
				break
			}
		}
		if p.SigPending.CompareAndSwap(old, old&^(1<<uint(sig))) {
			return sig
		}
	}
}

// SignalAction resolves what to do with sig: the installed handler, or nil
// with fatal reporting whether the default action terminates the process.
func (p *Proc) SignalAction(sig int) (h Handler, fatal bool) {
	if sig == SIGKILL {
		return nil, true // SIGKILL cannot be caught or ignored
	}
	p.Mu.Lock()
	h = p.Handlers[sig]
	p.Mu.Unlock()
	if h != nil {
		return h, false
	}
	return nil, defaultFatal(sig)
}

// SetHandler installs a handler (nil restores the default action).
func (p *Proc) SetHandler(sig int, h Handler) {
	if sig <= 0 || sig >= NSig || sig == SIGKILL {
		return
	}
	p.Mu.Lock()
	p.Handlers[sig] = h
	p.Mu.Unlock()
}
