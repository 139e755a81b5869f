package hw

import "math/bits"

// ValidCount returns the number of valid entries.
func (t *TLB) ValidCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return bits.OnesCount64(t.valid)
}
