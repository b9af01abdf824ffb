package ckpt_test

import (
	"runtime"
	"testing"

	"vulnstack/internal/arch"
	"vulnstack/internal/ckpt"
	"vulnstack/internal/codegen"
	"vulnstack/internal/inject"
	"vulnstack/internal/isa"
	"vulnstack/internal/kernel"
	"vulnstack/internal/micro"
	"vulnstack/internal/minic"
	"vulnstack/internal/workload"
)

func crcImage(t *testing.T, is isa.ISA) *kernel.Image {
	t.Helper()
	spec, err := workload.Get("crc32")
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.Compile(spec.Gen(3, 1), is.XLen())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Build(m, is)
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.BuildImage(prog, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEnginesRefuseClaimedStateLength: a digest-valid chain claiming a
// 1 GiB state image, with the engine's own golden blob and nothing
// stored, decodes (the chain is self-consistent) but both engines'
// PrepareFromChain refuse it, allocating under a megabyte: the claimed
// length is checked against the engine's layout before any checkpoint
// is materialized. So is a length one byte short of the layout.
func TestEnginesRefuseClaimedStateLength(t *testing.T) {
	cfg := micro.ConfigA9()
	img := crcImage(t, cfg.ISA)
	mcp, err := inject.Prepare(img, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	acp, err := arch.Prepare(img, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := micro.StateLenRange(cfg, img.RAM.Size(), 0)
	cases := []struct {
		name    string
		chain   *ckpt.Chain
		n       int
		prepare func(*ckpt.Chain) error
	}{
		{"micro", mcp.Chain(), 1 << 30, func(ch *ckpt.Chain) error { _, err := inject.PrepareFromChain(img, cfg, ch); return err }},
		{"micro short", mcp.Chain(), int(lo) - 1, func(ch *ckpt.Chain) error { _, err := inject.PrepareFromChain(img, cfg, ch); return err }},
		{"arch", acp.Chain(), 1 << 30, func(ch *ckpt.Chain) error { _, err := arch.PrepareFromChain(img, ch); return err }},
	}
	for _, c := range cases {
		data := ckpt.ClaimStateLen(c.chain, c.n).Encode()
		ch, err := ckpt.Decode(data)
		if err != nil {
			t.Fatalf("%s: the claiming chain must decode, so the engine's check is what refuses it: %v", c.name, err)
		}
		if ch.StateLen(0) != c.n {
			t.Fatalf("%s: decoded state length %d, want %d", c.name, ch.StateLen(0), c.n)
		}
		var perr error
		if n := allocated(func() { perr = c.prepare(ch) }); n >= 1<<20 {
			t.Errorf("%s: refusing a %d-byte state claim allocated %d bytes", c.name, c.n, n)
		}
		if perr == nil {
			t.Errorf("%s: PrepareFromChain accepted a %d-byte state claim", c.name, c.n)
		}
		t.Logf("%s: %d-byte chain refused: %v", c.name, len(data), perr)
	}
}
