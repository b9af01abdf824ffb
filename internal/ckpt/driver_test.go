package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"vulnstack/internal/mem"
)

// toy is a deterministic machine for the driver's tests. Each step
// advances its coordinate by stride, updates an accumulator (reset to
// the coordinate at every multiple of 16, so a corrupted accumulator is
// forgotten) and writes it into one of four RAM pages, and at every
// multiple of 32 into one of four others; a sticky flag, once set, is
// never cleared. It ends at coordinate end. Its state blob is
// coordinate, accumulator and flag.
type toy struct {
	ram    *mem.Memory
	coord  uint64
	acc    uint64
	sticky uint64
	stride uint64
	end    uint64
	// runs lists the coordinates RunTo was asked for, and matched the
	// checkpoints Matches was asked about.
	runs    []uint64
	matched []int
}

const toyRAM = 8 * mem.PageSize

func newToy(stride, end uint64) *toy {
	ram := mem.New(toyRAM)
	ram.EnableTracking()
	return &toy{ram: ram, stride: stride, end: end}
}

func (m *toy) step() {
	m.coord += m.stride
	if m.coord%16 == 0 {
		m.acc = m.coord
	} else {
		m.acc = m.acc*3 + 1
	}
	m.ram.Write(mem.GuardTop+(m.coord/m.stride%4)*mem.PageSize, 8, m.acc)
	if m.coord%32 == 0 {
		m.ram.Write(mem.GuardTop+(4+m.coord/32%4)*mem.PageSize, 8, m.acc)
	}
}

func (m *toy) Coord() uint64       { return m.coord }
func (m *toy) Probe() uint64       { return m.coord*0x9e3779b97f4a7c15 ^ m.acc }
func (m *toy) Memory() *mem.Memory { return m.ram }
func (m *toy) Aux() []byte         { return binary.AppendUvarint(nil, m.coord) }

func (m *toy) RunTo(c uint64) bool {
	m.runs = append(m.runs, c)
	for m.coord < c && m.coord < m.end {
		m.step()
	}
	return m.coord >= m.end
}

func (m *toy) state(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.coord)
	dst = binary.LittleEndian.AppendUint64(dst, m.acc)
	return binary.LittleEndian.AppendUint64(dst, m.sticky)
}

func (m *toy) Encode(blob []byte, changed []int) ([]byte, []int) {
	blob = m.state(blob[:0])
	return blob, AppendChunks(changed, 0, len(blob))
}

func (m *toy) Restore(cu *Cursor, g int) error {
	b := cu.Blob()
	if len(b) != 24 {
		return errors.New("toy: bad blob")
	}
	if v, _ := binary.Uvarint(cu.Chain().Aux(g)); v != cu.Chain().Coord(g) {
		return errors.New("toy: aux does not hold the coordinate")
	}
	m.coord, m.acc, m.sticky = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:])
	return nil
}

func (m *toy) Matches(cu *Cursor, j int) bool {
	m.matched = append(m.matched, j)
	return cu.Chain().StateEqual(j, m.state(nil)) && cu.Chain().RAMEqual(m.ram, cu.At(), j)
}

// toyChain captures a toy machine with the given stride and end, and
// returns the chain and the machine.
func toyChain(stride, end, length uint64, nsnaps int) (*Chain, *toy) {
	ch, m := New(Meta{Engine: "toy", RAMBytes: toyRAM}), newToy(stride, end)
	Capture(ch, m, length, nsnaps)
	return ch, m
}

func coords(ch *Chain) []uint64 {
	var cs []uint64
	for i := range ch.Len() {
		cs = append(cs, ch.Coord(i))
	}
	return cs
}

// TestCapture: Capture checkpoints at 0, step, 2·step, … below the
// length, keeps coordinate 0 alone at nsnaps <= 1, steps by 1 when the
// length is below nsnaps, skips a coordinate a coarse machine already
// captured, and stops at a machine's end; every checkpoint holds the
// state and RAM of a straight run to its coordinate.
func TestCapture(t *testing.T) {
	for _, c := range []struct {
		what                string
		stride, end, length uint64
		nsnaps              int
		want                []uint64
		last                uint64 // the last boundary Capture runs to
	}{
		{"nsnaps 0", 1, 1000, 100, 0, []uint64{0}, 0},
		{"nsnaps 1", 1, 1000, 100, 1, []uint64{0}, 0},
		{"length 0", 1, 1000, 0, 12, []uint64{0}, 0},
		{"even", 1, 1000, 100, 4, []uint64{0, 25, 50, 75}, 75},
		{"length below nsnaps", 1, 1000, 5, 12, []uint64{0, 1, 2, 3, 4}, 4},
		{"coarse machine", 3, 1000, 10, 10, []uint64{0, 3, 6, 9}, 9},
		{"ends on a boundary", 1, 40, 100, 10, []uint64{0, 10, 20, 30, 40}, 40},
		{"ends between boundaries", 1, 45, 100, 10, []uint64{0, 10, 20, 30, 40, 45}, 50},
	} {
		ch, golden := toyChain(c.stride, c.end, c.length, c.nsnaps)
		if got := coords(ch); !slices.Equal(got, c.want) {
			t.Errorf("%s: coordinates %v, want %v", c.what, got, c.want)
			continue
		}
		if last := golden.runs[len(golden.runs)-1]; last != c.last {
			t.Errorf("%s: capture ran to %d last, want %d", c.what, last, c.last)
		}
		for i := range ch.Len() {
			m := newToy(c.stride, c.end)
			m.RunTo(ch.Coord(i))
			if !ch.StateEqual(i, m.state(nil)) || ch.Probe(i) != m.Probe() {
				t.Errorf("%s: checkpoint %d's state is not a straight run's", c.what, i)
			}
			if !bytes.Equal(restoreRAM(ch, -1, i), m.ram.Bytes()) {
				t.Errorf("%s: checkpoint %d's RAM is not a straight run's", c.what, i)
			}
		}
	}
}

// restoreRAM returns checkpoint to's RAM restored into a fresh memory.
func restoreRAM(ch *Chain, from, to int) []byte {
	m := mem.New(toyRAM)
	m.EnableTracking()
	ch.RestoreRAM(m, from, to)
	return m.Bytes()
}

// TestCursorRestore: restoring checkpoint g on an arena last restored
// from any checkpoint src, and run and dirtied since, gives exactly a
// fresh arena's restore of g: state, RAM and probe.
func TestCursorRestore(t *testing.T) {
	ch, _ := toyChain(1, 1000, 200, 8)
	for src := -1; src < ch.Len(); src++ {
		for g := range ch.Len() {
			m := newToy(1, 1000)
			cu := NewCursor(ch, m)
			if src >= 0 {
				cu.Restore(src)
				m.acc ^= 1 << 9
				m.RunTo(m.coord + 7)
			}
			cu.Restore(g)
			fresh := newToy(1, 1000)
			NewCursor(ch, fresh).Restore(g)
			if cu.At() != g || !bytes.Equal(m.state(nil), fresh.state(nil)) || !bytes.Equal(m.ram.Bytes(), fresh.ram.Bytes()) {
				t.Fatalf("restore of %d after %d differs from a fresh restore", g, src)
			}
			if !ch.StateEqual(g, m.state(nil)) {
				t.Fatalf("restore of %d after %d is not checkpoint %d's state", g, src, g)
			}
		}
	}
}

// TestCursorRestorePanics: a checkpoint the machine cannot decode
// panics rather than run from a wrong state.
func TestCursorRestorePanics(t *testing.T) {
	ch := New(Meta{Engine: "toy", RAMBytes: toyRAM})
	ch.Add(0, 0, make([]byte, toyRAM), nil, []byte{1, 2, 3}, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("an undecodable checkpoint restored")
		}
	}()
	NewCursor(ch, newToy(1, 1000)).Restore(0)
}

// TestCursorRun: the pause-and-compare loop stops at the first
// checkpoint where the machine matches golden, skips the boundaries the
// machine is already past, clamps a pause to the limit, reports an end
// that comes before any checkpoint, and otherwise runs to the limit.
func TestCursorRun(t *testing.T) {
	ch, _ := toyChain(1, 1000, 200, 8) // checkpoints every 25
	run := func(g int, fault func(m *toy), limit uint64) (*toy, bool, bool) {
		m := newToy(1, 1000)
		cu := NewCursor(ch, m)
		cu.Restore(g)
		fault(m)
		m.runs = nil
		ended, converged := cu.Run(limit)
		return m, ended, converged
	}

	// A fault-free run converges at the next checkpoint.
	m, ended, converged := run(2, func(*toy) {}, 900)
	if ended || !converged || m.coord != 75 || !slices.Equal(m.matched, []int{3}) {
		t.Errorf("fault-free: ended %v converged %v at %d, matched %v", ended, converged, m.coord, m.matched)
	}

	// A corrupted accumulator is reset at 32, and its RAM page rewritten
	// at 35: the first checkpoint past both is 50.
	m, ended, converged = run(1, func(m *toy) { m.RunTo(30); m.acc ^= 1 << 40 }, 900)
	if ended || !converged || m.coord != 50 || !slices.Equal(m.matched, []int{2}) {
		t.Errorf("forgotten fault: ended %v converged %v at %d, matched %v", ended, converged, m.coord, m.matched)
	}

	// A RAM word corrupted at 49 is rewritten at 53: the run matches
	// golden's state and probe at 50 but not its RAM, and converges at
	// 75.
	m, ended, converged = run(1, func(m *toy) { m.RunTo(49); m.ram.Write(mem.GuardTop+mem.PageSize, 8, 0xdead) }, 900)
	if ended || !converged || m.coord != 75 || !slices.Equal(m.matched, []int{2, 3}) {
		t.Errorf("RAM fault: ended %v converged %v at %d, matched %v", ended, converged, m.coord, m.matched)
	}

	// A fault applied past two boundaries: the loop skips them, pausing
	// and comparing only at later ones.
	m, ended, converged = run(1, func(m *toy) { m.RunTo(80); m.sticky = 1 }, 900)
	if ended || converged || m.coord != 900 || !slices.Equal(m.matched, []int{4, 5, 6, 7}) ||
		!slices.Equal(m.runs, []uint64{100, 125, 150, 175, 900}) {
		t.Errorf("fault past boundaries: ended %v converged %v at %d, ran to %v, matched %v", ended, converged, m.coord, m.runs, m.matched)
	}

	// A limit between two checkpoints clamps every later pause to it,
	// and no checkpoint past it is compared.
	m, ended, converged = run(1, func(m *toy) { m.sticky = 1 }, 110)
	if ended || converged || m.coord != 110 || !slices.Equal(m.matched, []int{2, 3, 4}) ||
		!slices.Equal(m.runs, []uint64{50, 75, 100, 110, 110, 110, 110}) {
		t.Errorf("limit 110: ended %v converged %v at %d, ran to %v, matched %v", ended, converged, m.coord, m.runs, m.matched)
	}

	// A machine that ends before the next checkpoint reports its end.
	m, ended, converged = run(1, func(m *toy) { m.end = 40 }, 900)
	if !ended || converged || m.coord != 40 || len(m.matched) != 0 {
		t.Errorf("early end: ended %v converged %v at %d, matched %v", ended, converged, m.coord, m.matched)
	}

	// A machine that never converges runs past the last checkpoint to
	// the limit, or to its end before it.
	m, ended, converged = run(6, func(m *toy) { m.sticky = 1 }, 500)
	if ended || converged || m.coord != 500 || !slices.Equal(m.matched, []int{7}) {
		t.Errorf("never converges: ended %v converged %v at %d, matched %v", ended, converged, m.coord, m.matched)
	}
	m, ended, converged = run(6, func(m *toy) { m.sticky = 1; m.end = 400 }, 500)
	if !ended || converged || m.coord != 400 {
		t.Errorf("never converges, ends: ended %v converged %v at %d", ended, converged, m.coord)
	}
}
