// Package micro implements the microarchitectural (GeFIN-analog) model:
// a cycle-driven out-of-order core with a real physical register file,
// load/store queues and a two-level writeback cache hierarchy, all of
// whose bits exist and can be flipped. It is the substrate for the
// paper's AVF and HVF measurements.
package micro

import (
	"fmt"
	"math/bits"

	"vulnstack/internal/isa"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	HitLat    int // access latency in cycles
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Lines returns the number of lines.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

// TagBits returns tag width assuming 32-bit physical addresses.
func (c CacheConfig) TagBits() int {
	return 32 - bits.TrailingZeros32(uint32(c.Sets())) - bits.TrailingZeros32(uint32(c.LineBytes))
}

// BitsPerLine counts injectable bits per line: tag + data + valid + dirty.
func (c CacheConfig) BitsPerLine() int { return c.TagBits() + 8*c.LineBytes + 2 }

// Bits counts the total injectable bits of the cache.
func (c CacheConfig) Bits() int { return c.Lines() * c.BitsPerLine() }

// Config describes one microarchitecture model.
type Config struct {
	Name string
	ISA  isa.ISA

	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	// FrontLatency is the fetch-to-dispatch depth in cycles (pipeline
	// front-end stages).
	FrontLatency int

	ROBSize  int
	IQSize   int
	LQSize   int
	SQSize   int
	PhysRegs int

	MemPorts int
	MulLat   int
	DivLat   int

	BTBSize int // entries, power of two
	BPSize  int // bimodal counters, power of two
	RASSize int

	L1I, L1D, L2 CacheConfig
	MemLat       int

	// Reference runs the reference engine: every shortcut off. The core
	// then decodes every fetched word afresh (no predecoded fetch memo,
	// see decode.go), and the micro-layer injector built on this config
	// runs every faulty run to completion (no convergence early-stop).
	// Results are bit-identical either way; the zero value is the fast
	// path.
	Reference bool
}

// The four study microarchitectures. Parameters follow the paper's
// Table II where given (L2 sizes 512K/1M/1M/2M, ROB 40/60/128/128) and
// public Arm documentation for the rest. A9/A15 implement VSA32 (the
// Armv7 stand-in), A57/A72 implement VSA64 (Armv8).

// ConfigA9 models a Cortex-A9-like 2-wide OoO core.
func ConfigA9() Config {
	return Config{
		Name: "A9", ISA: isa.VSA32,
		FetchWidth: 2, IssueWidth: 2, CommitWidth: 2, FrontLatency: 8,
		ROBSize: 40, IQSize: 20, LQSize: 8, SQSize: 8, PhysRegs: 56,
		MemPorts: 1, MulLat: 4, DivLat: 19,
		BTBSize: 512, BPSize: 1024, RASSize: 8,
		L1I:    CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 4, HitLat: 1},
		L1D:    CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 4, HitLat: 2},
		L2:     CacheConfig{SizeBytes: 512 << 10, LineBytes: 32, Assoc: 8, HitLat: 8},
		MemLat: 60,
	}
}

// ConfigA15 models a Cortex-A15-like 3-wide OoO core.
func ConfigA15() Config {
	return Config{
		Name: "A15", ISA: isa.VSA32,
		FetchWidth: 3, IssueWidth: 3, CommitWidth: 3, FrontLatency: 12,
		ROBSize: 60, IQSize: 40, LQSize: 16, SQSize: 16, PhysRegs: 90,
		MemPorts: 1, MulLat: 4, DivLat: 12,
		BTBSize: 2048, BPSize: 4096, RASSize: 16,
		L1I:    CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, HitLat: 1},
		L1D:    CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, HitLat: 3},
		L2:     CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16, HitLat: 12},
		MemLat: 80,
	}
}

// ConfigA57 models a Cortex-A57-like 3-wide OoO core.
func ConfigA57() Config {
	return Config{
		Name: "A57", ISA: isa.VSA64,
		FetchWidth: 3, IssueWidth: 3, CommitWidth: 3, FrontLatency: 13,
		ROBSize: 128, IQSize: 44, LQSize: 16, SQSize: 16, PhysRegs: 128,
		MemPorts: 2, MulLat: 3, DivLat: 18,
		BTBSize: 2048, BPSize: 8192, RASSize: 16,
		L1I:    CacheConfig{SizeBytes: 48 << 10, LineBytes: 64, Assoc: 3, HitLat: 1},
		L1D:    CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, HitLat: 3},
		L2:     CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16, HitLat: 14},
		MemLat: 90,
	}
}

// ConfigA72 models a Cortex-A72-like 3-wide OoO core.
func ConfigA72() Config {
	return Config{
		Name: "A72", ISA: isa.VSA64,
		FetchWidth: 3, IssueWidth: 3, CommitWidth: 3, FrontLatency: 13,
		ROBSize: 128, IQSize: 64, LQSize: 16, SQSize: 16, PhysRegs: 128,
		MemPorts: 2, MulLat: 3, DivLat: 12,
		BTBSize: 4096, BPSize: 8192, RASSize: 32,
		L1I:    CacheConfig{SizeBytes: 48 << 10, LineBytes: 64, Assoc: 3, HitLat: 1},
		L1D:    CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, HitLat: 3},
		L2:     CacheConfig{SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16, HitLat: 16},
		MemLat: 90,
	}
}

// Configs returns the four study microarchitectures in paper order.
func Configs() []Config {
	return []Config{ConfigA9(), ConfigA15(), ConfigA57(), ConfigA72()}
}

// ConfigByName looks up a study configuration.
func ConfigByName(name string) (Config, error) {
	for _, c := range Configs() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("micro: unknown config %q (have A9, A15, A57, A72)", name)
}

// Structure identifies an injectable hardware structure, matching the
// five the paper studies.
type Structure int

const (
	StructRF Structure = iota // integer physical register file
	StructLSQ
	StructL1I
	StructL1D
	StructL2
	NumStructures
)

var structNames = [...]string{"RF", "LSQ", "L1i", "L1d", "L2"}

func (s Structure) String() string { return structNames[s] }

// ParseStructure resolves a structure name.
func ParseStructure(name string) (Structure, error) {
	for i, n := range structNames {
		if n == name {
			return Structure(i), nil
		}
	}
	return 0, fmt.Errorf("micro: unknown structure %q", name)
}

// Bits returns the injectable bit count of structure s under cfg
// (the AVF weighting factor: larger structures carry more FIT weight).
func (cfg *Config) Bits(s Structure) int {
	x := cfg.ISA.XLen()
	switch s {
	case StructRF:
		return cfg.PhysRegs * x
	case StructLSQ:
		// Each entry holds an address and a data word.
		return (cfg.LQSize + cfg.SQSize) * 2 * x
	case StructL1I:
		return cfg.L1I.Bits()
	case StructL1D:
		return cfg.L1D.Bits()
	case StructL2:
		return cfg.L2.Bits()
	}
	return 0
}

// TotalBits sums the injectable bits of all five structures.
func (cfg *Config) TotalBits() int {
	t := 0
	for s := Structure(0); s < NumStructures; s++ {
		t += cfg.Bits(s)
	}
	return t
}
