package ir

import "testing"

// defuseModule defines four dynamic values with known liveness:
//
//	seq 0: v0 = 7      read by the add           -> used
//	seq 1: v1 = 9      overwritten before a read -> dead
//	seq 2: v1 = 3      read by the add           -> used
//	seq 3: v2 = v0+v1  returned (read by ret)    -> used
func defuseModule() *Module {
	f := &Func{Name: "main", NumVReg: 3, HasRet: true}
	f.Blocks = []*Block{{Instrs: []Instr{
		{Op: OpConst, Dst: 0, Imm: 7},
		{Op: OpConst, Dst: 1, Imm: 9},
		{Op: OpConst, Dst: 1, Imm: 3},
		{Op: OpBin, Bin: Add, Dst: 2, A: 0, B: 1},
		{Op: OpRet, Dst: -1, A: 2},
	}}}
	return &Module{Funcs: []*Func{f}}
}

func TestTrackUseMarksOnlyReadDefs(t *testing.T) {
	m := defuseModule()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m, 64, 1<<16)
	ip.TrackUse = true
	if err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	if ip.ExitCode != 10 {
		t.Fatalf("exit %d, want 10", ip.ExitCode)
	}
	want := map[uint64]bool{0: true, 1: false, 2: true, 3: true}
	for seq, w := range want {
		if got := ip.DefUsed(seq); got != w {
			t.Errorf("DefUsed(%d) = %v, want %v", seq, got, w)
		}
	}
	// Sequences past the definition stream are never used.
	if ip.DefUsed(99) || ip.DefUsed(1<<40) {
		t.Error("out-of-range sequence reported used")
	}
}

// TestDeadDefFlipIsInvisible is the soundness base of the llfi
// dead-definition filter: corrupting a never-read definition leaves
// the execution bit-identical.
func TestDeadDefFlipIsInvisible(t *testing.T) {
	m := defuseModule()
	ip := NewInterp(m, 64, 1<<16)
	ip.Hook = func(seq uint64, in *Instr, v int64) int64 {
		if seq == 1 { // the dead definition
			return v ^ (1 << 17)
		}
		return v
	}
	if err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	if ip.ExitCode != 10 {
		t.Fatalf("dead-def flip changed the result: exit %d, want 10", ip.ExitCode)
	}
}

// TestTrackUseAcrossCalls: argument values are marked used at the call
// site, and callee-local dead definitions stay dead.
func TestTrackUseAcrossCalls(t *testing.T) {
	callee := &Func{Name: "id", NumVReg: 2, NumArgs: 1, HasRet: true}
	callee.Blocks = []*Block{{Instrs: []Instr{
		{Op: OpConst, Dst: 1, Imm: 42}, // seq 1: dead (never read)
		{Op: OpRet, Dst: -1, A: 0},
	}}}
	main := &Func{Name: "main", NumVReg: 2, HasRet: true}
	main.Blocks = []*Block{{Instrs: []Instr{
		{Op: OpConst, Dst: 0, Imm: 5},                   // seq 0: used (call arg)
		{Op: OpCall, Sym: "id", Dst: 1, Args: []int{0}}, // seq 2: used (returned)
		{Op: OpRet, Dst: -1, A: 1},
	}}}
	m := &Module{Funcs: []*Func{main, callee}}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(m, 64, 1<<16)
	ip.TrackUse = true
	if err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	if ip.ExitCode != 5 {
		t.Fatalf("exit %d, want 5", ip.ExitCode)
	}
	for seq, w := range map[uint64]bool{0: true, 1: false, 2: true} {
		if got := ip.DefUsed(seq); got != w {
			t.Errorf("DefUsed(%d) = %v, want %v", seq, got, w)
		}
	}
}
