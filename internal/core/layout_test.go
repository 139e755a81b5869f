package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestFrameAcctOwnLinePair: the frame account's used, which every zero fill
// and free on every CPU writes, is at least 128 bytes — a line pair, the
// adjacent-line prefetcher's unit — from every field of the block before it
// (the options and the rest of the header every fault reads) and from the
// member ceiling after it, so no aligned pair holds both. Deleting the pad
// fails.
func TestFrameAcctOwnLinePair(t *testing.T) {
	const pair = 128
	var sa ShAddr
	f, ok := reflect.TypeOf(&sa.frameAcct).Elem().FieldByName("used")
	if !ok {
		t.Fatal("hw.FrameAcct has no used field")
	}
	used := unsafe.Offsetof(sa.frameAcct) + f.Offset
	usedEnd := used + f.Type.Size()
	st := reflect.TypeOf(&sa).Elem()
	for i := 0; i < st.NumField(); i++ {
		fd := st.Field(i)
		if end := fd.Offset + fd.Type.Size(); fd.Name != "_" && end <= unsafe.Offsetof(sa.frameAcct) && used < end+pair {
			t.Errorf("used at byte %d, %d bytes after %s ends; want >= %d", used, int(used)-int(end), fd.Name, pair)
		}
	}
	if start := unsafe.Offsetof(sa.memberCap); start < usedEnd+pair {
		t.Errorf("memberCap at byte %d, %d bytes after used ends; want >= %d", start, int(start)-int(usedEnd), pair)
	}
}
