package vm

import (
	"testing"
	"unsafe"
)

// TestHotFieldsOwnCacheLine: every field of a Region's read-mostly header,
// which each fault loads, ends at least a cache line before the first field
// the fill slow path writes (resident, everWritable, the stripes). Deleting
// the pad fails.
func TestHotFieldsOwnCacheLine(t *testing.T) {
	const line = 64
	var r Region
	header := map[string]uintptr{
		"Type":     unsafe.Offsetof(r.Type) + unsafe.Sizeof(r.Type),
		"table":    unsafe.Offsetof(r.table) + unsafe.Sizeof(r.table),
		"refs":     unsafe.Offsetof(r.refs) + unsafe.Sizeof(r.refs),
		"mem":      unsafe.Offsetof(r.mem) + unsafe.Sizeof(r.mem),
		"lazySrc":  unsafe.Offsetof(r.lazySrc) + unsafe.Sizeof(r.lazySrc),
		"lazyKids": unsafe.Offsetof(r.lazyKids) + unsafe.Sizeof(r.lazyKids),
		"lazyPend": unsafe.Offsetof(r.lazyPend) + unsafe.Sizeof(r.lazyPend),
		"dirty":    unsafe.Offsetof(r.dirty) + unsafe.Sizeof(r.dirty),
	}
	written := map[string]uintptr{
		"resident":     unsafe.Offsetof(r.resident),
		"everWritable": unsafe.Offsetof(r.everWritable),
		"stripes":      unsafe.Offsetof(r.stripes),
	}
	for h, end := range header {
		for w, start := range written {
			if start < end+line {
				t.Errorf("%s starts %d bytes after %s ends; want >= %d", w, int(start)-int(end), h, line)
			}
		}
	}
}
