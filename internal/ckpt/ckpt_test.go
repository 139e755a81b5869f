package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func samplePage(size int, fill byte) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = fill + byte(i&7)
	}
	return p
}

func sampleImage() *Image {
	const ps = 64
	return &Image{
		Version:  Version,
		PageSize: ps,
		Attr: GroupAttr{
			Umask: 0o022, Ulimit: 1 << 30, Uid: 7, Gid: 9,
			CPUShares: 3, FrameQuota: 512, MemberCap: 8, Gang: true,
		},
		Regions: []RegionImage{
			{Base: 0x1000, Pages: 4, Type: RText, Resid: []PageImage{
				{Index: 0, Data: samplePage(ps, 1)},
			}},
			{Base: 0x8000, Pages: 16, Type: RData, Resid: []PageImage{
				{Index: 2, Data: samplePage(ps, 3)},
				{Index: 9, Data: samplePage(ps, 5)},
			}},
		},
		Members: []MemberImage{
			{PID: 1, Name: "creator", Mask: 0x3f, Prio: 0, Arg: 0,
				StackBase: 0x70000, StackPages: 8,
				Fds: []FdImage{
					{Fd: 0, Path: "/tmp/log", Flags: 3, Offset: 42},
					{Fd: 3, Stream: true},
				}},
			{PID: 2, Name: "worker", Mask: 0x3f, Prio: 1, Arg: 11,
				StackBase: 0x90000, StackPages: 8,
				PRDA: samplePage(ps, 8)},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	im := sampleImage()
	if err := im.Validate(); err != nil {
		t.Fatalf("sample image invalid: %v", err)
	}
	enc := im.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if diffs := Diff(im, got, DiffOpts{}); len(diffs) != 0 {
		t.Fatalf("round trip lost information: %v", diffs)
	}
	// Canonical: re-encoding the decoded image is byte-identical.
	if !bytes.Equal(enc, got.Encode()) {
		t.Fatal("re-encode of decoded image differs from original bytes")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sampleImage().Encode()

	bad := append([]byte{}, enc...)
	bad[len(bad)/2] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("decode accepted a flipped body byte")
	}
	if _, err := Decode(enc[:len(enc)-9]); err == nil {
		t.Fatal("decode accepted a truncated image")
	}
	bad = append([]byte{}, enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("decode accepted bad magic")
	}
}

func TestValidateCatchesStructuralDamage(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Image)
	}{
		{"overlapping regions", func(im *Image) { im.Regions[1].Base = im.Regions[0].Base }},
		{"page beyond extent", func(im *Image) { im.Regions[0].Resid[0].Index = 99 }},
		{"short page", func(im *Image) { im.Regions[0].Resid[0].Data = im.Regions[0].Resid[0].Data[:8] }},
		{"duplicate pid", func(im *Image) { im.Members[1].PID = im.Members[0].PID }},
		{"no members", func(im *Image) { im.Members = nil }},
		{"unshared member", func(im *Image) { im.Members[1].Mask = 0 }},
		{"unordered fds", func(im *Image) {
			m := &im.Members[0]
			m.Fds[0].Fd, m.Fds[1].Fd = 3, 0
		}},
	}
	for _, tc := range cases {
		im := sampleImage()
		tc.break_(im)
		if err := im.Validate(); err == nil {
			t.Errorf("%s: validate accepted damaged image", tc.name)
		}
	}
}

func TestDiffAbsentEqualsZero(t *testing.T) {
	a, b := sampleImage(), sampleImage()
	// A zero page recorded in one image and absent from the other is the
	// same logical state — a restore materializes it back to zeros.
	b.Regions[1].Resid = append(b.Regions[1].Resid, PageImage{Index: 12, Data: make([]byte, b.PageSize)})
	b.Normalize()
	if diffs := Diff(a, b, DiffOpts{}); len(diffs) != 0 {
		t.Fatalf("zero page vs absent page reported as difference: %v", diffs)
	}
	// A non-zero extra page is a real difference.
	b.Regions[1].Resid[0].Data[5] = 0xaa
	if diffs := Diff(a, b, DiffOpts{}); len(diffs) == 0 {
		t.Fatal("non-zero extra page not reported")
	}
}

func TestDiffIgnorePIDs(t *testing.T) {
	a, b := sampleImage(), sampleImage()
	b.Members[0].PID, b.Members[1].PID = 41, 42
	if diffs := Diff(a, b, DiffOpts{}); len(diffs) == 0 {
		t.Fatal("pid change not reported without IgnorePIDs")
	}
	if diffs := Diff(a, b, DiffOpts{IgnorePIDs: true}); len(diffs) != 0 {
		t.Fatalf("IgnorePIDs still reported: %v", diffs)
	}
	b.Members[1].Arg = 99
	if diffs := Diff(a, b, DiffOpts{IgnorePIDs: true}); len(diffs) == 0 {
		t.Fatal("argument change masked by IgnorePIDs")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	a, b := sampleImage(), sampleImage()
	// Build b's page list in a different order; Normalize must restore
	// the canonical form so the encodings agree byte for byte.
	r := &b.Regions[1]
	r.Resid[0], r.Resid[1] = r.Resid[1], r.Resid[0]
	b.Normalize()
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("same logical image encoded to different bytes")
	}
}

// bigImage is a hand-built image with npages resident pages in one region,
// for the tests that check costs do not scale with the page count.
func bigImage(npages int) *Image {
	im := sampleImage()
	im.PageSize = 4096
	im.Regions = []RegionImage{{Base: 0x30000000, Pages: npages, Type: RShm}}
	for i := 0; i < npages; i++ {
		im.Regions[0].Resid = append(im.Regions[0].Resid, PageImage{Index: i, Data: samplePage(4096, byte(i))})
	}
	im.Members[1].PRDA = samplePage(4096, 8)
	return im
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	cases := map[string]*Image{
		"sample (fds, PRDA, nil PRDA)": sampleImage(),
		"256 pages":                    bigImage(256),
		"empty":                        {Version: Version, PageSize: 64},
	}
	noResid := sampleImage()
	for i := range noResid.Regions {
		noResid.Regions[i].Resid = nil
	}
	cases["zero resident"] = noResid
	noPRDA := sampleImage()
	for i := range noPRDA.Members {
		noPRDA.Members[i].PRDA = nil
		noPRDA.Members[i].Fds = nil
	}
	cases["nil PRDA, no fds"] = noPRDA
	for name, im := range cases {
		if got, want := im.EncodedSize(), len(im.Encode()); got != want {
			t.Errorf("%s: EncodedSize() = %d, len(Encode()) = %d", name, got, want)
		}
	}
}

// The format is pinned, not just self-consistent: this is the SHA-256 of
// sampleImage's encoding as the byte-append encoder before EncodedSize
// produced it. A change here is a format change and needs a Version bump.
func TestEncodeGolden(t *testing.T) {
	const want = "6a81ce2edbf32e330cdd2306af7316fbed49e1fb4a174e2311fd36614ee7097d"
	if got := fmt.Sprintf("%x", sha256.Sum256(sampleImage().Encode())); got != want {
		t.Fatalf("sampleImage encodes to %s, want %s", got, want)
	}
}

// Encode is one allocation (the presized buffer) and Decode a handful (the
// slab copy, the image, and one list per region and member) — neither may
// grow with the number of pages.
func TestEncodeDecodeAllocsDoNotScaleWithPages(t *testing.T) {
	for _, npages := range []int{16, 256} {
		im := bigImage(npages)
		enc := im.Encode()
		if n := testing.AllocsPerRun(10, func() { im.Encode() }); n > 1 {
			t.Errorf("Encode of %d pages: %v allocations, want 1", npages, n)
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
		if n > 12 {
			t.Errorf("Decode of %d pages: %v allocations, want at most 12", npages, n)
		}
	}
}

// Decode hands out slices of its own copy, never of the caller's buffer,
// and clips each so that appending to one page cannot reach the next.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	enc := bigImage(4).Encode()
	im, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	ref := im.Encode()
	for i := range enc {
		enc[i] = 0xFF
	}
	pg := im.Regions[0].Resid[0].Data
	_ = append(pg, 0xAA) // must reallocate, not write into page 1's index
	if !bytes.Equal(im.Encode(), ref) {
		t.Fatal("decoded image changed when the input buffer or a page's spare capacity was written")
	}
}

func TestDecodeRejectsOversizedCounts(t *testing.T) {
	// A region count far beyond what the body can hold must be refused
	// before anything is allocated for it. Re-seal the CRC so the count
	// itself is what Decode trips on.
	enc := sampleImage().Encode()
	off := headerFixed + attrFixed
	binary.LittleEndian.PutUint32(enc[off:], 1<<16)
	body := enc[:len(enc)-8]
	binary.LittleEndian.PutUint64(enc[len(enc)-8:], crc64.Checksum(body, crcTable))
	if _, err := Decode(enc); err == nil {
		t.Fatal("decode accepted a region count the image cannot hold")
	}
}

// sparseImage is bigImage with one written word a page: the shape of a
// group whose members each touched a word of every page.
func sparseImage(npages int) *Image {
	im := bigImage(npages)
	for _, pg := range im.Regions[0].Resid {
		clear(pg.Data[4:])
	}
	return im
}

// pageData is the body offset of page j's bytes in a bigImage or
// sparseImage encoding: the header, the one region's record, j pages before
// it, and its own index.
func pageData(j int) int {
	return headerFixed + attrFixed + 4 + regionFixed + j*(4+4096) + 4
}

// The trailer is crc64.Checksum's value however the body was cut and
// whatever runs of zeros it holds: every chunk count the splitter can pick,
// at the lengths where its choice changes, and with one P (the serial
// call); over dense bodies, sparse ones with zero runs of random length and
// offset, runs shorter than a grain, runs across every chunk boundary, an
// all-zero body, bodies shorter than a grain, and a sparse image's body.
//
// Mutations, each of which fails this test (checked by hand when written):
// the zero-grain fold applied one time more or fewer than the run's grains;
// the grain tables built for x^(8·(sumGrain-1)) or x^(8·2·sumGrain); the
// fold applied to the checksum instead of the raw register (without the ^
// on both sides).
func TestChecksumMatchesSerial(t *testing.T) {
	rnd := rand.New(rand.NewSource(1988))
	dense := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	// zeroRuns clears runs of 1..maxLen bytes at random offsets.
	zeroRuns := func(b []byte, runs, maxLen int) []byte {
		for ; runs > 0; runs-- {
			at := rnd.Intn(len(b))
			clear(b[at:min(at+1+rnd.Intn(maxLen), len(b))])
		}
		return b
	}
	// acrossBoundaries clears a run a grain and a half either side of every
	// boundary any chunk count puts in b.
	acrossBoundaries := func(b []byte) []byte {
		for n := 2; n <= sumChunks; n++ {
			size := (len(b) + n - 1) / n
			for i := 1; i < n; i++ {
				clear(b[i*size-3*sumGrain/2 : i*size+3*sumGrain/2+7])
			}
		}
		return b
	}
	type body struct {
		name string
		b    []byte
	}
	var bodies []body
	for _, n := range []int{0, 1, 2*sumChunkMin - 1, 2 * sumChunkMin, 2*sumChunkMin + 1, 3<<20 + 17} {
		bodies = append(bodies, body{fmt.Sprintf("dense %d bytes", n), dense(n)})
	}
	sparse := sparseImage(768).Encode()
	bodies = append(bodies,
		body{"dense, shorter than a grain", dense(sumGrain - 1)},
		body{"zero, shorter than a grain", make([]byte, sumGrain-1)},
		body{"zero, one grain", make([]byte, sumGrain)},
		body{"all zero", make([]byte, 2*sumChunkMin+5)},
		body{"random zero runs", zeroRuns(dense(2*sumChunkMin+5), 300, 8*sumGrain)},
		body{"zero runs shorter than a grain", zeroRuns(dense(2*sumChunkMin+5), 3000, sumGrain-1)},
		body{"zero runs across chunk boundaries", acrossBoundaries(dense(2*sumChunkMin + 5))},
		body{"one word a page", sparse[:len(sparse)-8]},
	)
	for _, bd := range bodies {
		want := crc64.Checksum(bd.b, crcTable)
		for chunks := 1; chunks <= sumChunks; chunks++ {
			if got := checksumChunks(bd.b, chunks); got != want {
				t.Errorf("%s, %d chunks: checksum %#x, crc64.Checksum %#x", bd.name, chunks, got, want)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			got := checksum(bd.b)
			runtime.GOMAXPROCS(old)
			if got != want {
				t.Errorf("%s, GOMAXPROCS %d: checksum %#x, crc64.Checksum %#x", bd.name, procs, got, want)
			}
		}
	}
}

// A damaged byte fails Decode with the checksum error wherever in a
// chunked body it sits — first byte, either side of every chunk boundary,
// last byte — and, in a sparse image, inside a run of zeros the checksum
// folds rather than reads.
func TestDecodeRejectsCorruptionInAnyChunk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for i, im := range []*Image{bigImage(768), sparseImage(768)} { // 3 MiB: four chunks
		enc := im.Encode()
		body := len(enc) - 8
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
		if mid := pageData(383); i == 1 && !IsZero(enc[mid+4:mid+4096]) {
			t.Fatal("sparse page 383 holds more than its first word: pageData is off")
		}
		size := (body + 3) / 4
		for _, at := range []int{len(magic), size - 1, size, 2*size - 1, 2 * size, 3*size - 1, 3 * size, body - 1,
			pageData(0) + 2048, pageData(383) + 2048, pageData(767) + 2048} {
			enc[at] ^= 0x10
			if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Errorf("byte %d of %d flipped: Decode = %v, want the checksum error", at, body, err)
			}
			enc[at] ^= 0x10
		}
	}
}

func TestIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 64, 4096, 4097, 10000} {
		p := make([]byte, n)
		if !IsZero(p) {
			t.Errorf("IsZero(%d zero bytes) = false", n)
		}
		for _, at := range []int{0, n / 2, n - 1} {
			if n == 0 {
				break
			}
			p[at] = 1
			if IsZero(p) {
				t.Errorf("IsZero missed a set byte %d of %d", at, n)
			}
			p[at] = 0
		}
	}
}
