package ipc

// WakeCounts returns the sleeper wakeups issued on the reader and writer
// queues — the thundering-herd tests assert these stay proportional to
// transitions, not to sleepers × chunks.
func (p *Pipe) WakeCounts() (readers, writers int64) {
	return p.rq.SleeperWakes(), p.wq.SleeperWakes()
}

// Val returns the current value of semaphore idx.
func (s *SemSet) Val(idx int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.vals) {
		return -1
	}
	return s.vals[idx]
}
