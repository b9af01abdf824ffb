package mem

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 16)
	f := func(addr uint16, val uint64, szSel uint8) bool {
		n := []int{1, 2, 4, 8}[szSel%4]
		a := uint64(addr)
		if a < GuardTop {
			a += GuardTop
		}
		a &^= uint64(n - 1) // align
		if ok, _ := m.Write(a, n, val); !ok {
			return a+uint64(n) > m.Size()
		}
		got, ok := m.Read(a, n)
		want := val
		if n < 8 {
			want &= 1<<(8*n) - 1
		}
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGuardPage(t *testing.T) {
	m := New(0)
	if m.Size() != DefaultSize {
		t.Fatalf("default size: %d", m.Size())
	}
	if _, ok := m.Read(0, 4); ok {
		t.Fatal("null page must not be readable")
	}
	if ok, _ := m.Write(GuardTop-4, 8, 1); ok {
		t.Fatal("write straddling guard must fail")
	}
	if _, ok := m.Read(m.Size()-4, 8); ok {
		t.Fatal("read past end must fail")
	}
	if _, ok := m.Read(^uint64(0)-3, 4); ok {
		t.Fatal("wraparound read must fail")
	}
}

func TestLittleEndian(t *testing.T) {
	m := New(1 << 16)
	m.Write(0x2000, 4, 0x11223344)
	b, _ := m.Byte(0x2000)
	if b != 0x44 {
		t.Fatalf("little endian: got %#x", b)
	}
	w, ok := m.Word32(0x2000)
	if !ok || w != 0x11223344 {
		t.Fatalf("word32: %#x", w)
	}
	if _, ok := m.Word32(0x2002); ok {
		t.Fatal("misaligned word32 must fail")
	}
}

func TestFlipBit(t *testing.T) {
	m := New(1 << 16)
	m.Write(0x3000, 1, 0)
	if !m.FlipBit(0x3000, 7) {
		t.Fatal("flip failed")
	}
	v, _ := m.Read(0x3000, 1)
	if v != 0x80 {
		t.Fatalf("after flip: %#x", v)
	}
	m.FlipBit(0x3000, 7)
	v, _ = m.Read(0x3000, 1)
	if v != 0 {
		t.Fatal("double flip must restore")
	}
	if m.FlipBit(0x100, 0) {
		t.Fatal("guard page flip must fail")
	}
	if m.FlipBit(0x3000, 8) {
		t.Fatal("bit > 7 must fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(1 << 16)
	m.Write(0x4000, 8, 0xDEADBEEF)
	c := m.Clone()
	c.Write(0x4000, 8, 1)
	v, _ := m.Read(0x4000, 8)
	if v != 0xDEADBEEF {
		t.Fatal("clone must not alias")
	}
	m2 := New(1 << 16)
	m2.CopyFrom(m)
	v, _ = m2.Read(0x4000, 8)
	if v != 0xDEADBEEF {
		t.Fatal("CopyFrom")
	}
}

func TestValidBoundaries(t *testing.T) {
	m := New(1 << 16)
	size := m.Size()
	cases := []struct {
		addr uint64
		n    int
		want bool
	}{
		{GuardTop, 0, true},               // zero-length access at the floor
		{GuardTop, 8, true},               // first valid word
		{GuardTop - 1, 8, false},          // straddles the guard floor
		{size - 8, 8, true},               // last full word
		{size - 7, 8, false},              // one past the last word
		{size, 0, true},                   // zero-length access at the end
		{size, 1, false},                  // first invalid byte
		{GuardTop, -1, false},             // negative length
		{^uint64(0), 1, false},            // addr+n wraps to 0
		{^uint64(0) - 7, 8, false},        // addr+n wraps exactly to 0
		{^uint64(0) - 7, 16, false},       // wraps past 0 into low addresses
		{size, int(^uint(0) >> 1), false}, // huge length far past the end
		{0, 8, false},                     // null page
		{GuardTop / 2, 4, false},          // inside the guard region
	}
	for _, c := range cases {
		if got := m.Valid(c.addr, c.n); got != c.want {
			t.Errorf("Valid(%#x, %d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}
}

func TestDirtyTracking(t *testing.T) {
	golden := New(1 << 16)
	golden.Write(0x2000, 8, 0x1111)
	arena := golden.Clone()
	arena.EnableTracking()
	arena.CopyFrom(golden) // baseline; must clear the dirty set
	if n := arena.DirtyPages(); n != 0 {
		t.Fatalf("dirty after CopyFrom baseline: %d pages", n)
	}

	arena.Write(0x2000, 8, 0xFFFF)
	arena.FlipBit(0x5000, 3)
	if n := arena.DirtyPages(); n != 2 {
		t.Fatalf("dirty pages = %d, want 2", n)
	}
	// A multi-page WriteBytes must mark every page it touches.
	span := make([]byte, 2*PageSize+16)
	for i := range span {
		span[i] = 0xAB
	}
	if !arena.WriteBytes(PageSize*4-8, span) {
		t.Fatal("WriteBytes failed")
	}
	if n := arena.DirtyPages(); n < 5 {
		t.Fatalf("dirty pages = %d, want >= 5 (2 + 3-4 spanned)", n)
	}

	arena.RestoreDirty(golden)
	if n := arena.DirtyPages(); n != 0 {
		t.Fatalf("dirty after RestoreDirty: %d pages", n)
	}
	for _, a := range []uint64{0x2000, 0x5000, PageSize*4 - 8, PageSize * 5} {
		got, _ := arena.Read(a, 8)
		want, _ := golden.Read(a, 8)
		if got != want {
			t.Fatalf("addr %#x not restored: %#x != %#x", a, got, want)
		}
	}
}

func TestRestoreDirtyUntrackedFallsBack(t *testing.T) {
	golden := New(1 << 16)
	golden.Write(0x3000, 8, 7)
	arena := golden.Clone()
	arena.Write(0x3000, 8, 9) // no tracking enabled
	arena.RestoreDirty(golden)
	if v, _ := arena.Read(0x3000, 8); v != 7 {
		t.Fatalf("untracked RestoreDirty must full-copy: got %d", v)
	}
}

func TestIsMMIO(t *testing.T) {
	if !IsMMIO(MMIOBase) || !IsMMIO(MMIOBase+MMIOSize-1) || IsMMIO(MMIOBase-1) || IsMMIO(MMIOBase+MMIOSize) {
		t.Fatal("MMIO window")
	}
}

// TestPageEqualAndDirtyTracking covers the early-stop helpers: dirty
// page capture/take and the page-granular comparison.
func TestPageEqualAndDirtyTracking(t *testing.T) {
	a := New(1 << 16)
	b := New(1 << 16)
	if !a.PageEqual(b, 3) {
		t.Fatal("fresh memories must be page-equal")
	}
	a.Write(3<<PageShift+8, 8, 0xDEADBEEF)
	if a.PageEqual(b, 3) {
		t.Fatal("diverged page reported equal")
	}
	if !a.PageEqual(b, 4) {
		t.Fatal("untouched page reported unequal")
	}
	b.Write(3<<PageShift+8, 8, 0xDEADBEEF)
	if !a.PageEqual(b, 3) {
		t.Fatal("re-converged page reported unequal")
	}
	// Out-of-range pages compare equal (no backing bytes to differ).
	if !a.PageEqual(b, 1<<20) {
		t.Fatal("out-of-range page must compare equal")
	}

	m := New(1 << 16)
	if m.Tracking() {
		t.Fatal("tracking on by default")
	}
	m.EnableTracking()
	if !m.Tracking() {
		t.Fatal("tracking not enabled")
	}
	m.Write(5<<PageShift, 8, 1)
	m.Write(9<<PageShift, 8, 1)
	got := m.TakeDirtyPages([]int{-1})
	if len(got) != 3 || got[0] != -1 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("TakeDirtyPages = %v, want [-1 5 9]", got)
	}
	if len(m.DirtyPageList()) != 0 {
		t.Fatal("take must re-baseline the dirty set")
	}
	m.Write(5<<PageShift, 8, 2)
	if l := m.DirtyPageList(); len(l) != 1 || l[0] != 5 {
		t.Fatalf("DirtyPageList = %v, want [5]", l)
	}
}

// FuzzMemoryAccess checks Read, Write, FlipBit, SetPage, RestoreDirty,
// ResetDirty and FlagCode, with tracking and code versions on, against
// a plain byte-slice model of RAM and of its dirty-page list: values,
// ok flags, the code hits Write reports, contents and the dirty pages
// in first-write order must all agree. Every flagged granule whose
// bytes changed across an operation must carry a new version, which is
// what keeps predecoded code from going stale. An 8-byte write goes
// through Store64 first and Write only when Store64 refuses it, as the
// translation-block engine does; after every operation each plain page
// must be dirty, lie wholly in RAM past the guard page and hold no
// flagged granule. Each input runs on a RAM of four pages and on one
// whose last page is partial.
//
// The input is a sequence of 8-byte operations: kind, a0, a1, a2, then
// four payload bytes x. The address is a0 | a1<<8 (kind bit 7 moves it
// just below 2^64), a2 picks the access size or bit, and x the stored
// value or the page edit.
func FuzzMemoryAccess(f *testing.F) {
	f.Add([]byte{
		5, 0x10, 0, 0, 0, 0, 0, 0, // FlagCode(16): granule 16 is page 1's first
		1, 0x08, 0x10, 3, 1, 2, 3, 4, // Write(0x1008, 8) into the flagged granule
		0, 0x08, 0x10, 3, 0, 0, 0, 0, // Read(0x1008, 8)
		1, 0x00, 0x30, 2, 9, 9, 9, 9, // Write(0x3000, 4): page 3, unflagged
		4, 0, 0, 0, 0, 0, 0, 0, // RestoreDirty: page 1's flagged granule changes back
		1, 0xfc, 0x1f, 3, 5, 6, 7, 8, // Write(0x1ffc, 8) straddles pages 1 and 2
		2, 0x00, 0x10, 5, 0, 0, 0, 0, // FlipBit(0x1000, 5)
		3, 1, 0, 0, 0x10, 0, 0xff, 0, // SetPage(1) from the model, byte 0x10 flipped
		6, 0, 0, 0, 0, 0, 0, 0, // ResetDirty
		3, 1, 0, 0, 0x20, 0, 0x01, 2, // SetPage(1) from the restore source
		0x81, 0xfc, 0, 2, 0, 0, 0, 0, // Write(2^64-4-0xfc, 4): out of range
	})
	f.Add([]byte{
		5, 0x3f, 0, 0, 0, 0, 0, 0, // FlagCode(63): the last granule
		5, 0x40, 0, 0, 0, 0, 0, 0, // FlagCode(64): out of range
		1, 0xf8, 0x3f, 3, 1, 1, 1, 1, // Write(0x3ff8, 8): last word
		1, 0xfc, 0x3f, 3, 1, 1, 1, 1, // Write(0x3ffc, 8): past the end
		2, 0xff, 0x3f, 8, 0, 0, 0, 0, // FlipBit(0x3fff, 8): bad bit
		0, 0xff, 0x0f, 0, 0, 0, 0, 0, // Read(0xfff, 1): guard page
		3, 3, 0, 4, 0xf8, 0x0f, 0x80, 1, // SetPage(3) with half a page
		4, 0, 0, 0, 0, 0, 0, 0, // RestoreDirty
		3, 9, 0, 0, 0, 0, 1, 0, // SetPage(9): out of range
	})
	f.Add([]byte{
		1, 0x00, 0x20, 3, 1, 2, 3, 4, // Write(0x2000, 8): page 2 turns plain
		1, 0x10, 0x20, 3, 1, 2, 3, 4, // Write(0x2010, 8): Store64 on a plain page
		5, 0x20, 0, 0, 0, 0, 0, 0, // FlagCode(32), page 2's first granule: no longer plain
		1, 0x08, 0x20, 3, 5, 6, 7, 8, // Write(0x2008, 8) must bump granule 32
		1, 0x00, 0x30, 3, 1, 1, 1, 1, // Write(0x3000, 8): the last page, partial or whole
		1, 0x00, 0x3f, 3, 2, 2, 2, 2, // Write(0x3f00, 8): past the end of the partial page
		0, 0x00, 0x3f, 3, 0, 0, 0, 0, // Read(0x3f00, 8)
		0x80, 0x07, 0, 3, 0, 0, 0, 0, // Read(2^64-8, 8)
		0x81, 0x07, 0, 3, 0, 0, 0, 0, // Write(2^64-8, 8)
		6, 0, 0, 0, 0, 0, 0, 0, // ResetDirty: no page is plain
		1, 0x18, 0x20, 3, 1, 2, 3, 4, // Write(0x2018, 8)
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, size := range []int{4 * PageSize, 4*PageSize - 0xfc} {
			fuzzMemoryOps(t, size, ops)
		}
	})
}

// fuzzMemoryOps runs one FuzzMemoryAccess input on a RAM of size bytes.
func fuzzMemoryOps(t *testing.T, size int, ops []byte) {
	src := New(uint64(size))
	for i := range src.data {
		src.data[i] = byte(i*7 + i>>8)
	}
	m := New(uint64(size))
	m.EnableTracking()
	m.EnableCodeVersions()
	m.CopyFrom(src)
	model := append([]byte(nil), src.data...)
	var dirty []uint32
	markModel := func(addr uint64, n int) {
		for p := uint32(addr >> PageShift); p <= uint32((addr+uint64(n)-1)>>PageShift); p++ {
			if !slices.Contains(dirty, p) {
				dirty = append(dirty, p)
			}
		}
	}
	// span is the model's part of [lo, lo+n), clipped at the end of RAM.
	span := func(lo, n int) []byte { return model[lo:min(lo+n, size)] }
	ngran := (size + VerGranule - 1) / VerGranule
	flagged := make([]bool, ngran)
	seenVer := make([]uint32, ngran)
	seen := make([][]byte, ngran)
	granule := func(g int) []byte { return span(g*VerGranule, VerGranule) }
	valid := func(addr uint64, n int) bool {
		return addr >= GuardTop && addr < uint64(size) && uint64(n) <= uint64(size)-addr
	}

	for ; len(ops) >= 8; ops = ops[8:] {
		kind, a, a2, x := ops[0], uint64(ops[1])|uint64(ops[2])<<8, ops[3], ops[4:8]
		if kind&0x80 != 0 {
			a = ^uint64(0) - a
		}
		n := 1 << (a2 & 3)
		switch (kind & 0x7f) % 7 {
		case 0:
			v, ok := m.Read(a, n)
			if ok != valid(a, n) {
				t.Fatalf("Read(%#x, %d) ok=%v", a, n, ok)
			}
			var want [8]byte
			if ok {
				copy(want[:], model[a:a+uint64(n)])
			}
			if v != binary.LittleEndian.Uint64(want[:]) {
				t.Fatalf("Read(%#x, %d) = %#x, model %x", a, n, v, want[:n])
			}
		case 1:
			v := uint64(binary.LittleEndian.Uint32(x)) * 0x9e3779b97f4a7c15
			ok, code := n == 8 && m.Store64(a, v), false
			if !ok {
				ok, code = m.Write(a, n, v)
			}
			if ok != valid(a, n) {
				t.Fatalf("Write(%#x, %d) ok=%v", a, n, ok)
			}
			wantCode := false
			if ok {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				copy(model[a:a+uint64(n)], b[:n])
				markModel(a, n)
				for g := a >> VerShift; g <= (a+uint64(n)-1)>>VerShift; g++ {
					wantCode = wantCode || flagged[g]
				}
			}
			if code != wantCode {
				t.Fatalf("Write(%#x, %d) code=%v, want %v", a, n, code, wantCode)
			}
		case 2:
			bit := uint(a2 % 9)
			ok := m.FlipBit(a, bit)
			if want := valid(a, 1) && bit < 8; ok != want {
				t.Fatalf("FlipBit(%#x, %d) ok=%v", a, bit, ok)
			}
			if ok {
				model[a] ^= 1 << bit
				markModel(a, 1)
			}
		case 3:
			p := uint32(ops[1]) % uint32((size+PageSize-1)/PageSize+1)
			lo := int(p) * PageSize
			data := make([]byte, PageSize)
			base := model
			if x[3]&2 != 0 {
				base = src.data
			}
			if lo < size {
				copy(data, base[lo:])
			}
			data[(int(x[0])|int(x[1])<<8)%PageSize] ^= x[2]
			if x[3]&1 != 0 {
				data = data[:PageSize/2+int(a2)]
			}
			m.SetPage(p, data)
			if lo < size {
				copy(span(lo, PageSize), data)
			}
		case 4:
			m.RestoreDirty(src)
			for _, p := range dirty {
				lo := int(p) * PageSize
				copy(span(lo, PageSize), src.data[lo:])
			}
			dirty = dirty[:0]
		case 5:
			g := int(a % uint64(ngran+2))
			m.FlagCode(uint32(g))
			if g < ngran && !flagged[g] {
				flagged[g] = true
				seenVer[g] = m.ChunkVersion(uint32(g))
				seen[g] = append([]byte(nil), granule(g)...)
			}
		case 6:
			m.ResetDirty()
			dirty = dirty[:0]
		}

		if !bytes.Equal(m.Bytes(), model) {
			t.Fatalf("op %d: contents differ from the model", kind)
		}
		if got := m.DirtyPageList(); !slices.Equal(got, dirty) {
			t.Fatalf("op %d: dirty pages %v, model %v", kind, got, dirty)
		}
		for g := range flagged {
			if !flagged[g] {
				continue
			}
			v := m.ChunkVersion(uint32(g))
			if !bytes.Equal(seen[g], granule(g)) && v == seenVer[g] {
				t.Fatalf("op %d: flagged granule %d changed but kept version %d", kind, g, v)
			}
			seenVer[g] = v
			seen[g] = append(seen[g][:0], granule(g)...)
		}
		for p, plain := range m.plain {
			if !plain {
				continue
			}
			gs := flagged[p*pageGranules : min((p+1)*pageGranules, ngran)]
			if !slices.Contains(dirty, uint32(p)) || p < GuardTop/PageSize || (p+1)*PageSize > size || slices.Contains(gs, true) {
				t.Fatalf("op %d: page %d is plain; dirty pages %v, its granules flagged %v", kind, p, dirty, gs)
			}
		}
	}
}
