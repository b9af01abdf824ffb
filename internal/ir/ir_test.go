package ir

import (
	"strings"
	"testing"
)

// tiny builds a module with one function: ret (a op b).
func tiny(op BinKind, a, b int64) *Module {
	f := &Func{Name: "main", NumVReg: 3, HasRet: true}
	f.Blocks = []*Block{{Instrs: []Instr{
		{Op: OpConst, Dst: 0, Imm: a},
		{Op: OpConst, Dst: 1, Imm: b},
		{Op: OpBin, Bin: op, Dst: 2, A: 0, B: 1},
		{Op: OpRet, Dst: -1, A: 2},
	}}}
	return &Module{Funcs: []*Func{f}}
}

func evalBin(t *testing.T, op BinKind, a, b int64, width int) int64 {
	t.Helper()
	m := tiny(op, a, b)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m, width, 1<<16)
	ip.MaxSteps = 100
	if err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	return ip.ExitCode
}

func TestBinSemantics(t *testing.T) {
	cases := []struct {
		op     BinKind
		a, b   int64
		want64 int64
		want32 int64
	}{
		{Add, 1 << 40, 1, 1<<40 + 1, 1},
		{Sub, 0, 1, -1, -1},
		{Mul, 1 << 20, 1 << 20, 1 << 40, 0},
		{Div, -7, 2, -3, -3},
		{Div, 7, 0, -1, -1},
		{Rem, 7, 0, 7, 7},
		{Rem, -7, 2, -1, -1},
		{Shl, 1, 33, 1 << 33, 2},            // width-32 masks the shift to 1
		{LShr, -1, 60, 15, 0xFFFFFFF >> 24}, // width-32: (-1 as u32)>>28
		{AShr, -16, 2, -4, -4},
		{Eq, 5, 5, 1, 1},
		{Ne, 5, 5, 0, 0},
		{Lt, -1, 0, 1, 1},
		{Ge, -1, 0, 0, 0},
		{LtU, -1, 0, 0, 0},
		{GeU, -1, 0, 1, 1},
		{Xor, 0xF0, 0x0F, 0xFF, 0xFF},
	}
	for _, c := range cases {
		if got := evalBin(t, c.op, c.a, c.b, 64); got != c.want64 {
			t.Errorf("w64 %v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want64)
		}
	}
	// Width-32 spot checks.
	if got := evalBin(t, Add, 1<<40, 1, 32); got != 1 {
		t.Errorf("w32 add wrap: %d", got)
	}
	if got := evalBin(t, Shl, 1, 33, 32); got != 2 {
		t.Errorf("w32 shift mask: %d", got)
	}
	if got := evalBin(t, LShr, -1, 28, 32); got != 0xF {
		t.Errorf("w32 lshr: %#x", got)
	}
}

func TestVerifyRejects(t *testing.T) {
	cases := map[string]*Module{
		"no blocks":      {Funcs: []*Func{{Name: "f"}}},
		"empty block":    {Funcs: []*Func{{Name: "f", Blocks: []*Block{{}}}}},
		"no terminator":  {Funcs: []*Func{{Name: "f", NumVReg: 1, Blocks: []*Block{{Instrs: []Instr{{Op: OpConst, Dst: 0}}}}}}},
		"mid terminator": {Funcs: []*Func{{Name: "f", NumVReg: 1, Blocks: []*Block{{Instrs: []Instr{{Op: OpRet, A: -1}, {Op: OpConst, Dst: 0}}}}}}},
		"bad vreg":       {Funcs: []*Func{{Name: "f", NumVReg: 1, Blocks: []*Block{{Instrs: []Instr{{Op: OpConst, Dst: 5}, {Op: OpRet, A: -1}}}}}}},
		"bad target":     {Funcs: []*Func{{Name: "f", Blocks: []*Block{{Instrs: []Instr{{Op: OpBr, Target: 7}}}}}}},
		"bad slot":       {Funcs: []*Func{{Name: "f", NumVReg: 1, Blocks: []*Block{{Instrs: []Instr{{Op: OpFrame, Dst: 0, Slot: 2}, {Op: OpRet, A: -1}}}}}}},
		"unknown callee": {Funcs: []*Func{{Name: "f", NumVReg: 1, Blocks: []*Block{{Instrs: []Instr{{Op: OpCall, Dst: -1, Sym: "ghost"}, {Op: OpRet, A: -1}}}}}}},
		"bad load size":  {Funcs: []*Func{{Name: "f", NumVReg: 2, Blocks: []*Block{{Instrs: []Instr{{Op: OpLoad, Dst: 0, A: 1, Size: 3}, {Op: OpRet, A: -1}}}}}}},
	}
	for name, m := range cases {
		if err := m.Verify(); err == nil {
			t.Errorf("%s: verifier accepted invalid module", name)
		}
	}
}

func TestInterpFaults(t *testing.T) {
	// Load from the null guard must error.
	f := &Func{Name: "main", NumVReg: 2, HasRet: true}
	f.Blocks = []*Block{{Instrs: []Instr{
		{Op: OpConst, Dst: 0, Imm: 8},
		{Op: OpLoad, Dst: 1, A: 0, Size: 8},
		{Op: OpRet, A: 1},
	}}}
	m := &Module{Funcs: []*Func{f}}
	ip := NewInterp(m, 64, 1<<16)
	ip.MaxSteps = 100
	if err := ip.Run("main"); err == nil {
		t.Fatal("null access must fail")
	}
	// Misaligned access.
	f.Blocks[0].Instrs[0].Imm = 0x1001
	ip = NewInterp(m, 64, 1<<16)
	ip.MaxSteps = 100
	if err := ip.Run("main"); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("misaligned access: %v", err)
	}
	// Missing entry.
	if err := NewInterp(m, 64, 1<<16).Run("nope"); err == nil {
		t.Fatal("missing entry must fail")
	}
}

func TestGlobalsLayoutAndString(t *testing.T) {
	m := &Module{
		Globals: []*Global{
			{Name: "a", Size: 5, Init: []byte{1, 2, 3}},
			{Name: "b", Size: 8},
		},
		Funcs: []*Func{{Name: "main", NumVReg: 1, HasRet: true, Blocks: []*Block{{Instrs: []Instr{
			{Op: OpGlobal, Dst: 0, Sym: "b"},
			{Op: OpRet, A: 0},
		}}}}},
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m, 64, 1<<16)
	a, _ := ip.GlobalAddr("a")
	b, _ := ip.GlobalAddr("b")
	if a < 0x1000 || b <= a || b%8 != 0 {
		t.Fatalf("layout: a=%#x b=%#x", a, b)
	}
	if b := ip.Mem.Bytes(); b[a] != 1 || b[a+2] != 3 {
		t.Fatal("init bytes")
	}
	s := m.String()
	for _, want := range []string{"global a [5]", "func main", "ret %0", "%0 = global &b"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in\n%s", want, s)
		}
	}
	if m.NumInstrs() != 2 {
		t.Fatalf("NumInstrs %d", m.NumInstrs())
	}
}

func TestHookSeesEveryDefinition(t *testing.T) {
	m := tiny(Add, 2, 3)
	ip := NewInterp(m, 64, 1<<16)
	ip.MaxSteps = 100
	var seen []Opcode
	ip.Hook = func(seq uint64, in *Instr, v int64) int64 {
		seen = append(seen, in.Op)
		return v
	}
	if err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 { // two consts + one bin; ret defines nothing
		t.Fatalf("hook calls: %v", seen)
	}
	if ip.DefSeq != 3 {
		t.Fatalf("DefSeq %d", ip.DefSeq)
	}
}

func TestLookupCaches(t *testing.T) {
	m := tiny(Add, 1, 1)
	f1, ok1 := m.Lookup("main")
	f2, ok2 := m.Lookup("main")
	if !ok1 || !ok2 || f1 != f2 {
		t.Fatal("lookup")
	}
	if _, ok := m.Lookup("ghost"); ok {
		t.Fatal("ghost lookup")
	}
}
