package micro

import (
	"testing"

	"vulnstack/internal/mem"
)

func testHierarchy() (*cache, *cache, *ramLevel, *mem.Memory) {
	m := mem.New(1 << 18)
	ram := newRAMLevel(m, 50)
	l2 := newCache(CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4, HitLat: 10}, ram)
	l1 := newCache(CacheConfig{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2, HitLat: 1}, l2)
	return l1, l2, ram, m
}

func TestCacheReadWriteThrough(t *testing.T) {
	l1, _, _, m := testHierarchy()
	m.Write(0x2000, 8, 0x1122334455667788)
	v, taint, lat := l1.read(0x2000, 8)
	if v != 0x1122334455667788 || taint != 0 {
		t.Fatalf("read %x taint %x", v, taint)
	}
	if lat <= 1 {
		t.Fatal("first access must miss")
	}
	_, _, lat = l1.read(0x2000, 4)
	if lat != 1 {
		t.Fatalf("second access must hit (lat %d)", lat)
	}
	// Write hits the cached line and marks it dirty; RAM unchanged
	// until eviction.
	l1.write(0x2000, 8, 42, false)
	raw, _ := m.Read(0x2000, 8)
	if raw != 0x1122334455667788 {
		t.Fatal("writeback cache must not write through")
	}
	l1.flushAll()
	l1.lower.(*cache).flushAll() // drain L2 to RAM as well
	raw, _ = m.Read(0x2000, 8)
	if raw != 42 {
		t.Fatalf("flush must write back: %d", raw)
	}
}

func TestCacheEvictionWritesBack(t *testing.T) {
	l1, _, _, m := testHierarchy()
	// L1: 1KB, 64B lines, 2-way => 8 sets. Addresses 64*8 apart share
	// a set; three of them overflow two ways.
	a0, a1, a2 := uint64(0x2000), uint64(0x2000+512), uint64(0x2000+1024)
	l1.write(a0, 8, 111, false)
	l1.write(a1, 8, 222, false)
	l1.write(a2, 8, 333, false) // evicts a0 (write back into L2)
	// Drain both levels so RAM holds everything.
	l1.flushAll()
	l1.lower.(*cache).flushAll()
	for _, c := range []struct {
		addr uint64
		want uint64
	}{{a0, 111}, {a1, 222}, {a2, 333}} {
		v, _ := m.Read(c.addr, 8)
		if v != c.want {
			t.Fatalf("addr %#x: %d want %d", c.addr, v, c.want)
		}
	}
}

func TestCacheSnoop(t *testing.T) {
	l1, l2, _, m := testHierarchy()
	m.Write(0x3000, 1, 0x7F)
	if _, _, hit := l1.snoop(0x3000); hit {
		t.Fatal("cold snoop must miss")
	}
	l1.write(0x3000, 1, 0x55, false)
	b, taint, hit := l1.snoop(0x3000)
	if !hit || b != 0x55 || taint != 0 {
		t.Fatalf("snoop: hit=%v b=%#x", hit, b)
	}
	// Tainted write visible to the snooper (the ESC detection path).
	l1.write(0x3000, 1, 0x56, true)
	_, taint, _ = l1.snoop(0x3000)
	if taint == 0 {
		t.Fatal("snoop must observe taint")
	}
	// The refill path populated L2 with the pre-write copy; the DMA
	// snooper must prefer the L1 (freshest) copy, which it does by
	// construction — verify L2 holds the stale clean byte.
	if b2, t2, hit := l2.snoop(0x3000); !hit || b2 != 0x7F || t2 != 0 {
		t.Fatalf("L2 copy: hit=%v b=%#x taint=%#x", hit, b2, t2)
	}
}

func TestFlipDataBitTaintsLine(t *testing.T) {
	l1, _, _, _ := testHierarchy()
	l1.write(0x4000, 8, 0, false)
	set, tag, _ := l1.index(0x4000)
	way := l1.lookup(set, tag)
	res := l1.flipBit(set, way, 5) // data bit 5 of byte 0
	if !res.Hit || res.StaleLen != 0 {
		t.Fatalf("flip result %+v", res)
	}
	v, taint, _ := l1.read(0x4000, 1)
	if v != 0x20 || taint != 0x20 {
		t.Fatalf("after flip: v=%#x taint=%#x", v, taint)
	}
	// Flipping the same bit back self-corrects the taint.
	l1.flipBit(set, way, 5)
	v, taint, _ = l1.read(0x4000, 1)
	if v != 0 || taint != 0 {
		t.Fatalf("after unflip: v=%#x taint=%#x", v, taint)
	}
}

func TestFlipInvalidLineIsDead(t *testing.T) {
	l1, _, _, _ := testHierarchy()
	res := l1.flipBit(0, 0, 3)
	if res.Hit {
		t.Fatal("flip in invalid line must report dead")
	}
}

func TestFlipTagOnDirtyLineStalesRAM(t *testing.T) {
	l1, _, _, _ := testHierarchy()
	l1.write(0x5000, 8, 7, false) // dirty line
	set, tag, _ := l1.index(0x5000)
	way := l1.lookup(set, tag)
	dataBits := 8 * l1.cfg.LineBytes
	res := l1.flipBit(set, way, dataBits) // tag bit 0
	if !res.Hit || res.StaleLen != l1.cfg.LineBytes {
		t.Fatalf("tag flip on dirty line: %+v", res)
	}
	if res.StaleAddr != 0x5000&^63 {
		t.Fatalf("stale addr %#x", res.StaleAddr)
	}
}

func TestFlipValidBitDropsDirtyLine(t *testing.T) {
	l1, _, _, _ := testHierarchy()
	l1.write(0x6000, 8, 9, false)
	set, tag, _ := l1.index(0x6000)
	way := l1.lookup(set, tag)
	validBit := 8*l1.cfg.LineBytes + l1.cfg.TagBits()
	res := l1.flipBit(set, way, validBit)
	if !res.Hit || res.StaleLen == 0 {
		t.Fatalf("valid flip on dirty line: %+v", res)
	}
	if w := l1.lookup(set, tag); w >= 0 {
		t.Fatal("line must be invalid after valid-bit flip")
	}
}

func TestTaintTravelsThroughWriteback(t *testing.T) {
	l1, l2, ram, _ := testHierarchy()
	l1.write(0x7000, 8, 1, true) // tainted dirty line in L1
	l1.flushAll()                // -> L2
	if _, taint, hit := l2.snoop(0x7000); !hit || taint == 0 {
		t.Fatal("taint must reach L2 on writeback")
	}
	l2.flushAll() // -> RAM
	if ram.taints[0x7000] == 0 {
		t.Fatal("taint must reach the RAM taint map")
	}
	// Refill from RAM restores the taint into a fresh cache.
	v, taint, _ := l1.read(0x7000, 8)
	if v != 1 || taint == 0 {
		t.Fatal("refill must carry taint back")
	}
	// Overwriting with clean data clears it everywhere relevant.
	l1.write(0x7000, 8, 2, false)
	l1.flushAll()
	l2.flushAll()
	if ram.taints[0x7000] != 0 {
		t.Fatal("clean overwrite must clear RAM taint")
	}
}

func TestBranchPredictorBasics(t *testing.T) {
	cfg := ConfigA72()
	bp := newBranchPred(&cfg)
	pc := uint64(0x1000)
	if bp.predictTaken(pc) {
		t.Fatal("counters start not-taken")
	}
	bp.updateTaken(pc, true)
	bp.updateTaken(pc, true)
	if !bp.predictTaken(pc) {
		t.Fatal("two taken updates must flip the prediction")
	}
	bp.updateTaken(pc, false)
	bp.updateTaken(pc, false)
	bp.updateTaken(pc, false)
	if bp.predictTaken(pc) {
		t.Fatal("saturating down")
	}
	if _, hit := bp.btbLookup(pc); hit {
		t.Fatal("cold BTB")
	}
	bp.btbInsert(pc, 0x2000)
	if tgt, hit := bp.btbLookup(pc); !hit || tgt != 0x2000 {
		t.Fatal("BTB roundtrip")
	}
	bp.rasPush(0x3004)
	bp.rasPush(0x4008)
	if bp.rasPop() != 0x4008 || bp.rasPop() != 0x3004 {
		t.Fatal("RAS order")
	}
}
