package hw

import (
	"testing"
	"unsafe"
)

// TestHotFieldsOwnCacheLine: inUse, the reservation every allocation and
// free writes, is at least a cache line away from the frame-table headers
// every memory access reads before it and from the caches header every
// allocation reads after it; the pool, which every refill and drain writes,
// is a line past the caches header and FI, which every allocation reads.
// Deleting any of the three pads fails.
func TestHotFieldsOwnCacheLine(t *testing.T) {
	const line = 64
	var m Memory
	use, useEnd := unsafe.Offsetof(m.inUse), unsafe.Offsetof(m.inUse)+unsafe.Sizeof(m.inUse)
	before := map[string]uintptr{
		"frames": unsafe.Offsetof(m.frames) + unsafe.Sizeof(m.frames),
		"refs":   unsafe.Offsetof(m.refs) + unsafe.Sizeof(m.refs),
		"lines":  unsafe.Offsetof(m.lines) + unsafe.Sizeof(m.lines),
		"owners": unsafe.Offsetof(m.owners) + unsafe.Sizeof(m.owners),
	}
	for name, end := range before {
		if use < end+line {
			t.Errorf("inUse at byte %d, %d bytes after the %s header ends; want >= %d", use, int(use)-int(end), name, line)
		}
	}
	if start := unsafe.Offsetof(m.caches); start < useEnd+line {
		t.Errorf("caches at byte %d, %d bytes after inUse ends; want >= %d", start, int(start)-int(useEnd), line)
	}
	pool := unsafe.Offsetof(m.pool)
	read := map[string]uintptr{
		"caches": unsafe.Offsetof(m.caches) + unsafe.Sizeof(m.caches),
		"FI":     unsafe.Offsetof(m.FI) + unsafe.Sizeof(m.FI),
	}
	for name, end := range read {
		if pool < end+line {
			t.Errorf("pool at byte %d, %d bytes after the %s header ends; want >= %d", pool, int(pool)-int(end), name, line)
		}
	}
}
