package hw

import (
	"testing"
	"unsafe"
)

// TestHotFieldsOwnCacheLine: inUse, the reservation every allocation and
// free writes, is at least a cache line away from the frame-table headers
// every memory access reads before it and from the topology, pool and
// cache headers every allocation reads after it. Deleting either pad fails.
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
	after := map[string]uintptr{
		"topo":   unsafe.Offsetof(m.topo),
		"pools":  unsafe.Offsetof(m.pools),
		"caches": unsafe.Offsetof(m.caches),
	}
	for name, start := range after {
		if start < useEnd+line {
			t.Errorf("%s at byte %d, %d bytes after inUse ends; want >= %d", name, start, int(start)-int(useEnd), line)
		}
	}
}
