package hw

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// refEntry is a slot of refTLB: an invalidated one keeps its stale
// translation, as the hardware's does.
type refEntry struct {
	TLBEntry
	Valid bool
}

// refTLB is the linear-scan TLB the indexed one replaced, kept as the
// reference of the differential test: every operation compares all 64
// entries.
type refTLB struct {
	entries      [TLBSize]refEntry
	next         int
	hits, misses int64
}

func (t *refTLB) Lookup(vpn uint32, space ASID) (pfn PFN, writable, ok bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VPN == vpn && e.Space == space {
			t.hits++
			return e.Frame, e.Writable, true
		}
	}
	t.misses++
	return NoPFN, false, false
}

func (t *refTLB) Insert(vpn uint32, space ASID, pfn PFN, writable bool) {
	slot := -1
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VPN == vpn && e.Space == space {
			slot = i
			break
		}
		if !e.Valid && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = t.next
		t.next = (t.next + 1) % TLBSize
	}
	t.entries[slot] = refEntry{TLBEntry{VPN: vpn, Space: space, Frame: pfn, Writable: writable}, true}
}

func (t *refTLB) FlushSpace(space ASID) {
	for i := range t.entries {
		if t.entries[i].Space == space {
			t.entries[i].Valid = false
		}
	}
}

func (t *refTLB) FlushPage(vpn uint32, space ASID) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VPN == vpn && e.Space == space {
			e.Valid = false
		}
	}
}

func (t *refTLB) Resident(vpn uint32, space ASID) bool {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VPN == vpn && e.Space == space {
			return true
		}
	}
	return false
}

func (t *refTLB) ValidCount() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}

// The indexed TLB is the linear one slot for slot: after every operation
// the same entry sits in the same slot (so the same victim was chosen on
// every eviction, and a refused Fill left what an insert and a flush of its
// page leave), the replacement cursor, ValidCount and Hits/Misses
// agree, every Access and Resident answered alike, every Fill ran op exactly
// when its translation stood and allowed the access, and the index holds
// exactly the valid slots, each where its key's probe finds it. 256 pages
// in 3 spaces against 64 entries keep the TLB full and evicting; a hot
// subset keeps replacements-in-place and hits frequent.
func TestQuickTLBAgainstModel(t *testing.T) {
	const ops = 20000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tlb TLB
		var ref refTLB
		evictions := 0
		for n := 0; n < ops; n++ {
			vpn := uint32(rng.Intn(256))
			if rng.Intn(2) == 0 {
				vpn = uint32(rng.Intn(40)) * 0x1001 // hot pages, spread over the hash
			}
			space := ASID(1 + rng.Intn(3))
			var desc string
			switch op := rng.Intn(100); {
			case op < 45:
				desc = "Fill"
				if ref.ValidCount() == TLBSize && !ref.Resident(vpn, space) {
					evictions++
				}
				pfn, w, write, stands := PFN(rng.Intn(1<<20)), rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(4) != 0
				gp := NoPFN
				ran := tlb.Fill(vpn, space, pfn, w, write, func() bool { return stands }, func(p PFN) { gp = p })
				ref.Insert(vpn, space, pfn, w)
				if !stands {
					ref.FlushPage(vpn, space) // a refused fill is an insert dropped again
				}
				if want := stands && (w || !write); ran != want || ran && gp != pfn {
					t.Fatalf("seed %d op %d: Fill(%#x, %d, %d, writable %v, write %v, stands %v) ran %v on frame %d",
						seed, n, vpn, space, pfn, w, write, stands, ran, gp)
				}
			case op < 75:
				desc = "Access"
				write, gp := rng.Intn(2) == 0, NoPFN
				ran := tlb.Access(vpn, space, write, func(p PFN) { gp = p })
				wp, ww, wok := ref.Lookup(vpn, space)
				if want := wok && (ww || !write); ran != want || ran && gp != wp {
					t.Fatalf("seed %d op %d: Access(%#x, %d, write %v) ran %v on frame %d, linear scan says (%d, %v, %v)",
						seed, n, vpn, space, write, ran, gp, wp, ww, wok)
				}
			case op < 83:
				desc = "Resident"
				if got, want := tlb.Resident(vpn, space), ref.Resident(vpn, space); got != want {
					t.Fatalf("seed %d op %d: Resident(%#x, %d) = %v, linear scan says %v", seed, n, vpn, space, got, want)
				}
			case op < 99:
				desc = "FlushPage"
				tlb.FlushPage(vpn, space)
				ref.FlushPage(vpn, space)
			default:
				desc = "FlushSpace"
				tlb.FlushSpace(space)
				ref.FlushSpace(space)
			}
			if msg := tlbDiff(&tlb, &ref); msg != "" {
				t.Fatalf("seed %d op %d, after %s(%#x, %d): %s", seed, n, desc, vpn, space, msg)
			}
		}
		if evictions < ops/20 {
			t.Fatalf("seed %d: %d evictions in %d ops — the key space no longer keeps the TLB full", seed, evictions, ops)
		}
	}
}

// tlbDiff describes the first difference between the indexed TLB and the
// reference, or a broken index invariant; "" when there is none.
func tlbDiff(tlb *TLB, ref *refTLB) string {
	used := 0
	for _, s := range tlb.index {
		if s != 0 {
			used++
		}
	}
	if used != bits.OnesCount64(tlb.valid) {
		return fmt.Sprintf("%d index positions in use for %d valid slots", used, bits.OnesCount64(tlb.valid))
	}
	for i := range ref.entries {
		r, valid := ref.entries[i], tlb.valid>>i&1 != 0
		if r.Valid != valid {
			return fmt.Sprintf("slot %d valid = %v, linear scan says %v", i, valid, r.Valid)
		}
		if valid && tlb.entries[i] != r.TLBEntry {
			return fmt.Sprintf("slot %d holds %+v, linear scan says %+v", i, tlb.entries[i], r.TLBEntry)
		}
		if valid {
			if slot, _ := tlb.find(r.VPN, r.Space); slot != i {
				return fmt.Sprintf("the index finds slot %d's key in slot %d", i, slot)
			}
		}
	}
	if tlb.next != ref.next {
		return fmt.Sprintf("replacement cursor = %d, linear scan says %d", tlb.next, ref.next)
	}
	if got, want := tlb.ValidCount(), ref.ValidCount(); got != want {
		return fmt.Sprintf("ValidCount = %d, linear scan says %d", got, want)
	}
	if h, m := tlb.Hits.Load(), tlb.Misses.Load(); h != ref.hits || m != ref.misses {
		return fmt.Sprintf("Hits/Misses = %d/%d, linear scan says %d/%d", h, m, ref.hits, ref.misses)
	}
	return ""
}
