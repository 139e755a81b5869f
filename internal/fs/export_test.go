package fs

// Entries returns a snapshot of a directory's names.
func (ip *Inode) Entries() []string {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	out := make([]string, 0, len(ip.dir))
	for name := range ip.dir {
		out = append(out, name)
	}
	return out
}
