package hw

import (
	"testing"
	"unsafe"
)

// TestHotFieldsOwnCacheLine: inUse, the reservation every allocation and
// free writes, is at least a cache line away from the bank directory's
// header every memory access reads before it and from the caches header
// every allocation reads after it; the pool, which every refill and drain
// writes, is a line past the caches header and FI, which every allocation
// reads. Deleting any of the three pads fails.
func TestHotFieldsOwnCacheLine(t *testing.T) {
	const line = 64
	var m Memory
	use, useEnd := unsafe.Offsetof(m.inUse), unsafe.Offsetof(m.inUse)+unsafe.Sizeof(m.inUse)
	if end := unsafe.Offsetof(m.banks) + unsafe.Sizeof(m.banks); use < end+line {
		t.Errorf("inUse at byte %d, %d bytes after the bank directory's header ends; want >= %d", use, int(use)-int(end), line)
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

// TestFrameRecordsShareNoLine: a frame's record is 32 bytes and a bank
// starts on a cache line, so no record straddles two lines and an
// allocation or a free touches one line of frame metadata.
func TestFrameRecordsShareNoLine(t *testing.T) {
	if n := unsafe.Sizeof(frameMeta{}); n != 32 {
		t.Errorf("frame record is %d bytes, want 32", n)
	}
	m := NewMemory(1)
	if _, err := m.Alloc(); err != nil {
		t.Fatal(err)
	}
	if at := uintptr(unsafe.Pointer(m.banks[0].Load())); at%64 != 0 {
		t.Errorf("bank at %#x, not on a cache line", at)
	}
}
