package vm

// Tracking reports whether checkpoint dirty tracking is armed.
func (r *Region) Tracking() bool { return r.dirty.Load() != nil }
