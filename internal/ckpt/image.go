// Package ckpt defines the checkpoint image of a running share group: a
// deterministic, self-contained description of the group's shared address
// space (region geometry and page contents), its members (identity,
// masks, stacks, PRDA contents, descriptor tables), and the share block's
// attributes and entitlements.
//
// The package is deliberately a leaf: it imports nothing from the kernel,
// vm, or hw layers, and it never sees a page-table entry or a physical
// frame number — the kernel serializes regions exclusively through the vm
// package's page-read API and hands this package plain bytes (the
// lint-ckpt rule in the Makefile pins that boundary). Everything in an
// image is virtual-address- and content-level state, so two checkpoints
// of identical logical states encode to identical bytes regardless of
// frame placement, CPU interleaving, or pass count.
package ckpt

import (
	"bytes"
	"fmt"
	"sort"
)

// Version is the image format version encoded in the header.
const Version = 1

// Region types, mirroring the vm package's numbering (the kernel converts
// both ways; ckpt keeps its own constants so it does not import vm).
const (
	RText  = 0
	RData  = 1
	RStack = 2
	RShm   = 3
	RPRDA  = 4
)

// GroupAttr is the share block's captured attribute and entitlement
// state: the shadowed environment (umask, ulimit, ids) plus the
// setshares(2) entitlements and the gang-scheduling request. Delivery
// counters (cycles, decayed usage) are deliberately excluded — they are
// schedule-dependent and would break image determinism.
type GroupAttr struct {
	Umask      uint16
	Ulimit     int64
	Uid, Gid   uint16
	CPUShares  int32
	FrameQuota int64
	MemberCap  int32
	Gang       bool
}

// PageImage is one resident page's contents at its index within a region.
type PageImage struct {
	Index int
	Data  []byte // exactly Image.PageSize bytes
}

// RegionImage is one shared region: base virtual address, geometry, and
// the resident pages in ascending index order. Pages absent from the list
// are demand-zero — a restore leaves them untouched and a diff treats an
// absent page and an all-zero page as equal.
type RegionImage struct {
	Base  uint64
	Pages int // region size in pages
	Type  uint8
	Resid []PageImage
}

// FdImage is one open descriptor of a member's table. Regular files carry
// the path, flags and offset needed to reacquire them at restore;
// anonymous stream endpoints (pipes, sockets) are recorded structurally —
// Stream true, Path empty — and are not reopened.
type FdImage struct {
	Fd      int
	Path    string
	Flags   int
	FdFlags uint8 // per-descriptor flags (close-on-exec, non-blocking)
	Offset  int64
	Stream  bool
}

// MemberImage is one group member's register-level state: identity, share
// mask, entry argument, stack placement, PRDA contents and descriptor
// table. Members appear in creation order; index 0 is the group creator,
// whose role the restoring caller adopts.
type MemberImage struct {
	PID        int
	Name       string
	Mask       uint32
	Prio       int32
	Arg        int64
	StackBase  uint64
	StackPages int
	PRDA       []byte // PRDA page contents; nil when never touched
	Fds        []FdImage
}

// Image is one checkpoint of a share group.
type Image struct {
	Version  int
	PageSize int
	Attr     GroupAttr
	Regions  []RegionImage // ascending Base
	Members  []MemberImage // creation order
}

// Validate runs the structural checks — layer one of the livecore-style
// validation stack: internally consistent geometry before any restore or
// diff is attempted.
func (im *Image) Validate() error {
	if im.Version != Version {
		return fmt.Errorf("ckpt: image version %d, want %d", im.Version, Version)
	}
	if im.PageSize <= 0 {
		return fmt.Errorf("ckpt: non-positive page size %d", im.PageSize)
	}
	if len(im.Members) == 0 {
		return fmt.Errorf("ckpt: image has no members")
	}
	var prevEnd uint64
	for i, r := range im.Regions {
		if r.Pages <= 0 {
			return fmt.Errorf("ckpt: region %d at %#x has %d pages", i, r.Base, r.Pages)
		}
		if i > 0 && r.Base < prevEnd {
			return fmt.Errorf("ckpt: region %d at %#x overlaps predecessor ending at %#x", i, r.Base, prevEnd)
		}
		prevEnd = r.Base + uint64(r.Pages*im.PageSize)
		last := -1
		for _, pg := range r.Resid {
			if pg.Index <= last {
				return fmt.Errorf("ckpt: region %#x pages out of order (%d after %d)", r.Base, pg.Index, last)
			}
			last = pg.Index
			if pg.Index >= r.Pages {
				return fmt.Errorf("ckpt: region %#x page %d beyond %d-page extent", r.Base, pg.Index, r.Pages)
			}
			if len(pg.Data) != im.PageSize {
				return fmt.Errorf("ckpt: region %#x page %d holds %d bytes, want %d", r.Base, pg.Index, len(pg.Data), im.PageSize)
			}
		}
	}
	seen := map[int]bool{}
	for i, m := range im.Members {
		if seen[m.PID] {
			return fmt.Errorf("ckpt: duplicate member pid %d", m.PID)
		}
		seen[m.PID] = true
		if m.StackPages <= 0 {
			return fmt.Errorf("ckpt: member %d (%q) has %d stack pages", i, m.Name, m.StackPages)
		}
		if m.PRDA != nil && len(m.PRDA) != im.PageSize {
			return fmt.Errorf("ckpt: member %d PRDA holds %d bytes, want %d", i, len(m.PRDA), im.PageSize)
		}
		if m.Mask&1 == 0 { // PRSADDR: the restorable contract
			return fmt.Errorf("ckpt: member %d (%q) does not share the address space", i, m.Name)
		}
		last := -1
		for _, fd := range m.Fds {
			if fd.Fd <= last {
				return fmt.Errorf("ckpt: member %d descriptors out of order", i)
			}
			last = fd.Fd
		}
	}
	return nil
}

// DiffOpts selects what a comparison ignores.
type DiffOpts struct {
	// IgnorePIDs drops member PIDs from the comparison: a restored group
	// has fresh PIDs but must match in everything else.
	IgnorePIDs bool
}

// Diff compares two images and returns a human-readable line per
// difference, empty when equivalent. An absent page and an all-zero page
// compare equal (both restore to demand-zero), so a round trip through
// restore — which materializes zero pages a copy pass recorded — still
// diffs clean.
func Diff(a, b *Image, opts DiffOpts) []string {
	var out []string
	miss := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if a.PageSize != b.PageSize {
		miss("page size %d vs %d", a.PageSize, b.PageSize)
		return out
	}
	if a.Attr != b.Attr {
		miss("group attrs %+v vs %+v", a.Attr, b.Attr)
	}
	if len(a.Regions) != len(b.Regions) {
		miss("region count %d vs %d", len(a.Regions), len(b.Regions))
	}
	for i := 0; i < len(a.Regions) && i < len(b.Regions); i++ {
		ra, rb := &a.Regions[i], &b.Regions[i]
		if ra.Base != rb.Base || ra.Pages != rb.Pages || ra.Type != rb.Type {
			miss("region %d geometry %#x/%d/%d vs %#x/%d/%d",
				i, ra.Base, ra.Pages, ra.Type, rb.Base, rb.Pages, rb.Type)
			continue
		}
		diffPages(ra, rb, a.PageSize, miss)
	}
	if len(a.Members) != len(b.Members) {
		miss("member count %d vs %d", len(a.Members), len(b.Members))
	}
	for i := 0; i < len(a.Members) && i < len(b.Members); i++ {
		ma, mb := a.Members[i], b.Members[i]
		if !opts.IgnorePIDs && ma.PID != mb.PID {
			miss("member %d pid %d vs %d", i, ma.PID, mb.PID)
		}
		if ma.Name != mb.Name || ma.Mask != mb.Mask || ma.Prio != mb.Prio || ma.Arg != mb.Arg {
			miss("member %d identity %q/%#x/%d/%d vs %q/%#x/%d/%d", i,
				ma.Name, ma.Mask, ma.Prio, ma.Arg, mb.Name, mb.Mask, mb.Prio, mb.Arg)
		}
		if ma.StackBase != mb.StackBase || ma.StackPages != mb.StackPages {
			miss("member %d stack %#x/%d vs %#x/%d", i, ma.StackBase, ma.StackPages, mb.StackBase, mb.StackPages)
		}
		if !pagesEqual(ma.PRDA, mb.PRDA) {
			miss("member %d PRDA contents differ", i)
		}
		if len(ma.Fds) != len(mb.Fds) {
			miss("member %d descriptor count %d vs %d", i, len(ma.Fds), len(mb.Fds))
			continue
		}
		for j := range ma.Fds {
			if ma.Fds[j] != mb.Fds[j] {
				miss("member %d fd %d: %+v vs %+v", i, ma.Fds[j].Fd, ma.Fds[j], mb.Fds[j])
			}
		}
	}
	return out
}

// diffPages compares two equal-geometry regions' resident sets, treating
// absent pages as zero.
func diffPages(ra, rb *RegionImage, pageSize int, miss func(string, ...any)) {
	ia, ib := 0, 0
	for ia < len(ra.Resid) || ib < len(rb.Resid) {
		switch {
		case ib >= len(rb.Resid) || (ia < len(ra.Resid) && ra.Resid[ia].Index < rb.Resid[ib].Index):
			if !IsZero(ra.Resid[ia].Data) {
				miss("region %#x page %d present only in first image (non-zero)", ra.Base, ra.Resid[ia].Index)
			}
			ia++
		case ia >= len(ra.Resid) || rb.Resid[ib].Index < ra.Resid[ia].Index:
			if !IsZero(rb.Resid[ib].Data) {
				miss("region %#x page %d present only in second image (non-zero)", ra.Base, rb.Resid[ib].Index)
			}
			ib++
		default:
			if !pagesEqual(ra.Resid[ia].Data, rb.Resid[ib].Data) {
				miss("region %#x page %d contents differ", ra.Base, ra.Resid[ia].Index)
			}
			ia++
			ib++
		}
	}
}

// pagesEqual compares two pages where nil means all-zero.
func pagesEqual(a, b []byte) bool {
	if a == nil {
		return IsZero(b)
	}
	if b == nil {
		return IsZero(a)
	}
	return bytes.Equal(a, b)
}

// IsZero reports whether every byte of p is zero: the first one is, and
// each equals its successor.
func IsZero(p []byte) bool {
	return len(p) == 0 || p[0] == 0 && bytes.Equal(p[:len(p)-1], p[1:])
}

// Normalize sorts regions by base and each region's pages by index —
// the canonical order Encode requires. The kernel builds images in order
// already; Normalize makes hand-built test images canonical too.
func (im *Image) Normalize() {
	sort.Slice(im.Regions, func(i, j int) bool { return im.Regions[i].Base < im.Regions[j].Base })
	for i := range im.Regions {
		r := &im.Regions[i]
		sort.Slice(r.Resid, func(a, b int) bool { return r.Resid[a].Index < r.Resid[b].Index })
	}
}

// ResidentPages counts the pages carried in the image (image weight in
// pages; the encoded size adds headers and tables).
func (im *Image) ResidentPages() int {
	n := 0
	for _, r := range im.Regions {
		n += len(r.Resid)
	}
	for _, m := range im.Members {
		if m.PRDA != nil {
			n++
		}
	}
	return n
}
