package ipc

// Val returns the current value of semaphore idx.
func (s *SemSet) Val(idx int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.vals) {
		return -1
	}
	return s.vals[idx]
}
