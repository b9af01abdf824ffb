package micro

import (
	"bytes"
	"math"
	"testing"

	"vulnstack/internal/dev"
	"vulnstack/internal/mem"
	"vulnstack/internal/workload"
)

// midpointCore runs the sha workload to roughly half its golden length
// and returns the core plus the config used.
func midpointCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	spec, err := workload.Get("sha")
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, spec.Gen(3, 1), cfg.ISA)
	golden := New(cfg, img.NewMemory(), img.Entry)
	if !golden.Run(1 << 28) {
		t.Fatal("golden run did not finish")
	}
	core := New(cfg, img.NewMemory(), img.Entry)
	for core.Cycle < golden.Cycle/2 {
		if !core.Step() {
			break
		}
	}
	return core
}

// TestStateCodecRoundTrip: EncodeState/DecodeState must reproduce a
// mid-run core exactly — StateEqual true, identical probe, identical
// re-encoding — and the restored core must finish with the same
// output, cycle count and counters.
func TestStateCodecRoundTrip(t *testing.T) {
	for _, cfg := range []Config{ConfigA72(), ConfigA9()} {
		core := midpointCore(t, cfg)
		blob := core.EncodeState(nil)

		twin := New(cfg, mem.New(core.Bus.Mem.Size()), 0)
		twin.Bus.Mem.CopyFrom(core.Bus.Mem)
		if err := twin.DecodeState(blob); err != nil {
			t.Fatalf("%s: decode: %v", cfg.Name, err)
		}
		if !core.StateEqual(twin) {
			t.Fatalf("%s: restored core not StateEqual to source", cfg.Name)
		}
		if core.StateProbe() != twin.StateProbe() {
			t.Fatalf("%s: probes differ after round trip", cfg.Name)
		}
		if !bytes.Equal(twin.EncodeState(nil), blob) {
			t.Fatalf("%s: re-encoding differs (codec not canonical)", cfg.Name)
		}

		if !core.Run(1<<28) || !twin.Run(1<<28) {
			t.Fatalf("%s: a run did not finish", cfg.Name)
		}
		if core.Cycle != twin.Cycle || core.Instret != twin.Instret ||
			core.KInstr != twin.KInstr ||
			!bytes.Equal(core.Bus.Out, twin.Bus.Out) ||
			core.Bus.ExitCode != twin.Bus.ExitCode {
			t.Fatalf("%s: restored core diverged from source after resume", cfg.Name)
		}
	}
}

// TestStatePC: the cheap fetch-PC peek must agree with the encoded
// core's actual fetch PC, and reject blobs too short to hold it.
func TestStatePC(t *testing.T) {
	cfg := ConfigA72()
	core := midpointCore(t, cfg)
	blob := core.EncodeState(nil)
	pc, ok := StatePC(blob)
	if !ok {
		t.Fatal("StatePC rejected a full state blob")
	}
	if pc != core.fetchPC {
		t.Fatalf("StatePC = %#x, core fetchPC = %#x", pc, core.fetchPC)
	}
	if _, ok := StatePC(blob[:statePCOffset+7]); ok {
		t.Fatal("StatePC accepted a blob too short to hold the PC")
	}
}

// TestStateCodecCanonical: bytes-equality of encodings must track
// StateEqual in both directions — the property the checkpoint chain's
// chunk-wise convergence compare rests on.
func TestStateCodecCanonical(t *testing.T) {
	cfg := ConfigA72()
	core := midpointCore(t, cfg)
	blob := core.EncodeState(nil)

	// Same state → same bytes (even via an independent encode).
	if !bytes.Equal(core.EncodeState(nil), blob) {
		t.Fatal("two encodings of one state differ")
	}
	// Different state → different bytes.
	if !core.Step() {
		t.Fatal("step")
	}
	blob2 := core.EncodeState(nil)
	if bytes.Equal(blob2, blob) {
		t.Fatal("state advanced but encoding unchanged")
	}

	// A truncated blob must error, not mis-restore.
	twin := New(cfg, mem.New(core.Bus.Mem.Size()), 0)
	for _, cut := range []int{0, 10, len(blob) / 2, len(blob) - 1} {
		if err := twin.DecodeState(blob[:cut]); err == nil {
			t.Fatalf("truncated blob (%d bytes) decoded without error", cut)
		}
	}
	// Trailing garbage must error too.
	if err := twin.DecodeState(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Fatal("blob with trailing bytes decoded without error")
	}
}

// TestStateLenRange: the layout StateLenRange derives without building
// caches or RAM must put the tail where a built core's setLayout does,
// and a mid-run core's encoding must fall inside the range.
func TestStateLenRange(t *testing.T) {
	for _, cfg := range Configs() {
		core := midpointCore(t, cfg)
		blob := core.EncodeState(nil)
		ram := core.Bus.Mem.Size()
		lo, hi := StateLenRange(cfg, ram, uint64(len(core.Bus.Out))+core.Instret)
		devLo, _ := dev.DeviceLenRange(0)
		if want := uint64(core.tailOff+4+ringSize) + devLo; lo != want {
			t.Fatalf("%s: least length %d, want tailOff %d plus the minimal tail (%d)", cfg.Name, lo, core.tailOff, want)
		}
		if n := uint64(len(blob)); n < lo || n > hi {
			t.Fatalf("%s: a %d-byte mid-run encoding falls outside [%d, %d]", cfg.Name, n, lo, hi)
		}
		if _, hi := StateLenRange(cfg, ram, math.MaxUint64); hi != math.MaxUint64 {
			t.Fatalf("%s: an unbounded stream bound gives %d, want saturation", cfg.Name, hi)
		}
	}
}
