package klock

// Waiting returns the number of sleeping threads.
func (s *Sema) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// RLock acquires the lock for scanning with no CPU affinity (slot 0).
// Multiple readers may hold it. Pair with RUnlock.
func (l *MRLock) RLock(t Thread) { l.RLockOn(t, 0) }

// RUnlock releases a read hold taken by RLock.
func (l *MRLock) RUnlock() { l.RUnlockOn(0) }
