package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"runtime"
	"sync"
)

// Binary image format: little-endian, fixed-width integers, length-
// prefixed strings and lists, in canonical order (regions ascending by
// base, pages ascending by index, members in creation order), closed by a
// CRC64 of everything before it. Two checkpoints of identical logical
// state therefore encode byte-identically — the determinism contract the
// restore-and-diff and double-checkpoint tests pin.

var magic = [8]byte{'S', 'G', 'C', 'K', 'P', 'T', 0, '\n'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// The trailer is crc64.Checksum(body, crcTable), whichever way it is
// computed. A body of two chunks or more is summed a chunk per goroutine —
// one per P, at most sumChunks — and the parts folded with crcCombine; a
// smaller body, or a single P, is summed in one piece. Either way a piece
// is walked in sumGrain-byte grains, and a run of all-zero grains is folded
// into the register by multiplication instead of fed through the table.
const (
	sumChunkMin = 256 << 10 // bytes; below two of these a body is summed serially
	sumChunks   = 8
	sumGrain    = 256 // bytes tested for zero at a time
)

func checksum(body []byte) uint64 {
	return checksumChunks(body, min(runtime.GOMAXPROCS(0), len(body)/sumChunkMin, sumChunks))
}

// checksumChunks sums body as n (at most sumChunks) near-equal chunks.
func checksumChunks(body []byte, n int) uint64 {
	if n < 2 {
		return sum(body)
	}
	size := (len(body) + n - 1) / n
	chunk := func(i int) []byte {
		return body[min(i*size, len(body)):min((i+1)*size, len(body))]
	}
	var sums [sumChunks]uint64
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sums[i] = sum(chunk(i))
		}(i)
	}
	crc := sum(chunk(0))
	wg.Wait()
	for i := 1; i < n; i++ {
		crc = crcCombine(crc, sums[i], len(chunk(i)))
	}
	return crc
}

// sum is crc64.Checksum(p, crcTable). A zero byte multiplies the raw
// register (the checksum before its final complement) by x^8 mod P and adds
// nothing, so a run of k zero grains multiplies it by x^(8·sumGrain), k
// times; every other byte goes through crc64.Update. A damaged byte makes
// its grain non-zero, so nothing is skipped that was not zero.
func sum(p []byte) uint64 {
	var crc uint64
	for len(p) > 0 {
		dense, zeros := 0, 0 // p[:dense] holds no zero grain; p[dense:dense+zeros] only zero grains
		for dense+sumGrain <= len(p) && !IsZero(p[dense:dense+sumGrain]) {
			dense += sumGrain
		}
		for dense+zeros+sumGrain <= len(p) && IsZero(p[dense+zeros:][:sumGrain]) {
			zeros += sumGrain
		}
		if zeros == 0 {
			dense = len(p) // what is left is shorter than a grain
		}
		crc = crc64.Update(crc, crcTable, p[:dense])
		crc = ^foldZeroGrains(^crc, zeros/sumGrain)
		p = p[dense+zeros:]
	}
	return crc
}

// foldZeroGrains multiplies the raw register r by x^(8·sumGrain) mod P k
// times, a byte of r per table.
func foldZeroGrains(r uint64, k int) uint64 {
	if k == 0 {
		return r
	}
	t := grainTables()
	for ; k > 0; k-- {
		r = t[0][byte(r)] ^ t[1][byte(r>>8)] ^ t[2][byte(r>>16)] ^ t[3][byte(r>>24)] ^
			t[4][byte(r>>32)] ^ t[5][byte(r>>40)] ^ t[6][byte(r>>48)] ^ t[7][byte(r>>56)]
	}
	return r
}

// grainTables holds x^(8·sumGrain) mod P split by the byte it multiplies:
// the product is linear in r, so it is the XOR of one entry per byte of r.
// 16 KiB, built on the first zero grain.
var grainTables = sync.OnceValue(func() *[8][256]uint64 {
	shift := xPow8n(sumGrain)
	t := new([8][256]uint64)
	for k := range t {
		for b := range t[k] {
			t[k][b] = mulModP(uint64(b)<<(8*k), shift)
		}
	}
	return t
})

// crcCombine returns the checksum of A‖B from those of A and B and B's
// length: appending len(B) bytes multiplies A's remainder by x^(8·len(B))
// mod P, and the all-ones conditioning at both ends cancels between the
// two, as in zlib's crc32_combine.
func crcCombine(crcA, crcB uint64, lenB int) uint64 {
	return mulModP(xPow8n(lenB), crcA) ^ crcB
}

// xPow8n returns x^(8n) mod P, by square-and-multiply. Polynomials are in
// the table's reflected bit order: bit 63 is x^0, and multiplying by x
// shifts right.
func xPow8n(n int) uint64 {
	xn := uint64(1) << 63 // x^0
	for sq, e := uint64(1)<<62, uint64(n)*8; e != 0; e >>= 1 {
		if e&1 != 0 {
			xn = mulModP(sq, xn)
		}
		sq = mulModP(sq, sq)
	}
	return xn
}

// mulModP returns a·b mod P over GF(2).
func mulModP(a, b uint64) uint64 {
	var prod uint64
	for ; a != 0; a <<= 1 { // a's terms, x^0 first; b is multiplied by x each turn
		if a>>63 != 0 {
			prod ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
	return prod
}

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Encoded sizes of the fixed-width parts of each record, shared by
// EncodedSize and by Decode's does-the-list-fit checks.
const (
	headerFixed = 8 + 4 + 4                     // magic, version, page size
	attrFixed   = 2 + 8 + 2 + 2 + 4 + 8 + 4 + 1 // GroupAttr
	regionFixed = 8 + 4 + 1 + 4                 // base, pages, type, resident count
	memberFixed = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4
	fdFixed     = 4 + 4 + 4 + 1 + 8 + 1
)

// EncodedSize returns len(im.Encode()) by arithmetic over the same field
// walk, without building the image.
func (im *Image) EncodedSize() int {
	n := headerFixed + attrFixed + 4 + 4 + 8 // both list counts, CRC trailer
	for i := range im.Regions {
		n += regionFixed
		for _, pg := range im.Regions[i].Resid {
			n += 4 + len(pg.Data)
		}
	}
	for i := range im.Members {
		m := &im.Members[i]
		n += memberFixed + len(m.Name) + len(m.PRDA)
		for _, fd := range m.Fds {
			n += fdFixed + len(fd.Path)
		}
	}
	return n
}

// Encode serializes the image to its canonical byte form.
func (im *Image) Encode() []byte {
	w := &writer{buf: make([]byte, 0, im.EncodedSize())}
	w.buf = append(w.buf, magic[:]...)
	w.u32(uint32(im.Version))
	w.u32(uint32(im.PageSize))

	w.u16(im.Attr.Umask)
	w.i64(im.Attr.Ulimit)
	w.u16(im.Attr.Uid)
	w.u16(im.Attr.Gid)
	w.u32(uint32(im.Attr.CPUShares))
	w.i64(im.Attr.FrameQuota)
	w.u32(uint32(im.Attr.MemberCap))
	w.boolean(im.Attr.Gang)

	w.u32(uint32(len(im.Regions)))
	for _, r := range im.Regions {
		w.u64(r.Base)
		w.u32(uint32(r.Pages))
		w.u8(r.Type)
		w.u32(uint32(len(r.Resid)))
		for _, pg := range r.Resid {
			w.u32(uint32(pg.Index))
			w.buf = append(w.buf, pg.Data...)
		}
	}

	w.u32(uint32(len(im.Members)))
	for _, m := range im.Members {
		w.u32(uint32(m.PID))
		w.str(m.Name)
		w.u32(m.Mask)
		w.u32(uint32(m.Prio))
		w.i64(m.Arg)
		w.u64(m.StackBase)
		w.u32(uint32(m.StackPages))
		w.bytes(m.PRDA)
		w.u32(uint32(len(m.Fds)))
		for _, fd := range m.Fds {
			w.u32(uint32(fd.Fd))
			w.str(fd.Path)
			w.u32(uint32(fd.Flags))
			w.u8(fd.FdFlags)
			w.i64(fd.Offset)
			w.boolean(fd.Stream)
		}
	}

	w.u64(checksum(w.buf))
	return w.buf
}

type reader struct {
	buf []byte
	off int
	err error
}

// need returns the next n bytes, capacity-clipped so a caller appending to
// one field cannot run into its neighbour.
func (r *reader) need(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("ckpt: truncated image at offset %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// list reads an element count and checks it against both the format's
// ceiling and the bytes left (each element encodes to at least minSize), so
// the caller can allocate the whole list up front.
func (r *reader) list(limit, minSize int, what string) int {
	n := r.count(limit, what)
	if r.err == nil && n*minSize > len(r.buf)-r.off {
		r.err = fmt.Errorf("ckpt: truncated image at offset %d (%d %ss do not fit)", r.off, n, what)
		return 0
	}
	return n
}

func (r *reader) u8() uint8 {
	b := r.need(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u16() uint16 {
	b := r.need(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (r *reader) u32() uint32 {
	b := r.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *reader) u64() uint64 {
	b := r.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (r *reader) i64() int64    { return int64(r.u64()) }
func (r *reader) boolean() bool { return r.u8() != 0 }
func (r *reader) count(limit int, what string) int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > limit) {
		r.err = fmt.Errorf("ckpt: implausible %s count %d", what, n)
	}
	if r.err != nil {
		return 0
	}
	return n
}
func (r *reader) str() string {
	n := r.count(1<<20, "string byte")
	b := r.need(n)
	if b == nil {
		return ""
	}
	return string(b)
}
func (r *reader) bytes() []byte {
	n := r.count(1<<24, "byte-slice byte")
	b := r.need(n)
	if n == 0 {
		return nil
	}
	return b
}

// Decode parses a canonical image, verifying magic and checksum. The
// result passes Validate when the encoder's input did. It does not alias
// data: the body is copied once, every page and PRDA of the image is cut
// from that one slab, and strings are copied out of it.
func Decode(data []byte) (*Image, error) {
	if len(data) < len(magic)+8 {
		return nil, fmt.Errorf("ckpt: image too short (%d bytes)", len(data))
	}
	for i, b := range magic {
		if data[i] != b {
			return nil, fmt.Errorf("ckpt: bad magic")
		}
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(trailer), checksum(body); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (%#x != %#x)", got, want)
	}

	r := &reader{buf: bytes.Clone(body), off: len(magic)}
	im := &Image{
		Version:  int(r.u32()),
		PageSize: int(r.u32()),
	}
	if r.err == nil && im.Version != Version {
		return nil, fmt.Errorf("ckpt: image version %d, want %d", im.Version, Version)
	}
	if r.err == nil && (im.PageSize <= 0 || im.PageSize > 1<<20) {
		return nil, fmt.Errorf("ckpt: implausible page size %d", im.PageSize)
	}

	im.Attr.Umask = r.u16()
	im.Attr.Ulimit = r.i64()
	im.Attr.Uid = r.u16()
	im.Attr.Gid = r.u16()
	im.Attr.CPUShares = int32(r.u32())
	im.Attr.FrameQuota = r.i64()
	im.Attr.MemberCap = int32(r.u32())
	im.Attr.Gang = r.boolean()

	im.Regions = make([]RegionImage, r.list(1<<16, regionFixed, "region"))
	for i := range im.Regions {
		reg := &im.Regions[i]
		reg.Base = r.u64()
		reg.Pages = int(r.u32())
		reg.Type = r.u8()
		reg.Resid = make([]PageImage, r.list(1<<24, 4+im.PageSize, "page"))
		for j := range reg.Resid {
			reg.Resid[j] = PageImage{Index: int(r.u32()), Data: r.need(im.PageSize)}
		}
	}

	im.Members = make([]MemberImage, r.list(1<<16, memberFixed, "member"))
	for i := range im.Members {
		m := &im.Members[i]
		m.PID = int(r.u32())
		m.Name = r.str()
		m.Mask = r.u32()
		m.Prio = int32(r.u32())
		m.Arg = r.i64()
		m.StackBase = r.u64()
		m.StackPages = int(r.u32())
		m.PRDA = r.bytes()
		m.Fds = make([]FdImage, r.list(1<<16, fdFixed, "descriptor"))
		for j := range m.Fds {
			m.Fds[j] = FdImage{
				Fd:      int(r.u32()),
				Path:    r.str(),
				Flags:   int(r.u32()),
				FdFlags: r.u8(),
				Offset:  r.i64(),
				Stream:  r.boolean(),
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes", len(body)-r.off)
	}
	return im, nil
}
