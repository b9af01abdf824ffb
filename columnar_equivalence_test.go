package vulnstack

import (
	"bytes"
	"testing"

	"vulnstack/internal/isa"
	"vulnstack/internal/micro"
	"vulnstack/internal/results"
)

// TestColumnarEquivalenceAllBenchmarks is the acceptance gate of the
// columnar record plane: on every seed benchmark, at every layer, the
// tally served from the columnar store (fresh run -> segment write ->
// streamed re-read) must be bit-identical to the direct in-memory run,
// and each stored campaign must survive an export to the JSONL
// interchange format and back record for record. Small per-layer counts — the point is breadth
// across benchmarks (different record shapes: targets, coordinates,
// outcomes, early-stop mixes), not statistical depth.
func TestColumnarEquivalenceAllBenchmarks(t *testing.T) {
	const (
		nMicro = 10
		nArch  = 16
		nSoft  = 30
		seed   = 2021
	)
	cfg := micro.ConfigA72()
	for _, bench := range Benchmarks() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			mk := func(st *results.Store) *System {
				sys, err := Build(Target{Bench: bench, Seed: 1}, isa.VSA64)
				if err != nil {
					t.Fatal(err)
				}
				sys.Snapshots = 6
				sys.Workers = 1
				sys.Store = st
				return sys
			}

			// Direct in-memory reference, no store.
			ref := mk(nil)
			refMicro, err := ref.MicroTally(cfg, micro.StructRF, nMicro, seed)
			if err != nil {
				t.Fatal(err)
			}
			refArch, err := ref.PVF(micro.FPMWD, nArch, seed)
			if err != nil {
				t.Fatal(err)
			}
			refSoft, err := ref.SVF(nSoft, seed)
			if err != nil {
				t.Fatal(err)
			}

			// Fresh run against a store writes columnar segments; a second
			// system re-reads them through the streaming cursor.
			st, err := results.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			first := mk(st)
			if _, err := first.MicroTally(cfg, micro.StructRF, nMicro, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := first.PVF(micro.FPMWD, nArch, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := first.SVF(nSoft, seed); err != nil {
				t.Fatal(err)
			}
			reread := mk(st)
			gotMicro, err := reread.MicroTally(cfg, micro.StructRF, nMicro, seed)
			if err != nil {
				t.Fatal(err)
			}
			if gotMicro != refMicro {
				t.Errorf("micro store tally %+v != direct %+v", gotMicro, refMicro)
			}
			gotArch, err := reread.PVF(micro.FPMWD, nArch, seed)
			if err != nil {
				t.Fatal(err)
			}
			if gotArch != refArch {
				t.Errorf("arch store split %+v != direct %+v", gotArch, refArch)
			}
			gotSoft, err := reread.SVF(nSoft, seed)
			if err != nil {
				t.Fatal(err)
			}
			if gotSoft != refSoft {
				t.Errorf("soft store split %+v != direct %+v", gotSoft, refSoft)
			}

			// JSONL round trip: export each stored campaign through the
			// interchange format and parse it back.
			for _, k := range []results.Key{
				reread.MicroKey(cfg, micro.StructRF, seed),
				reread.ArchKey(micro.FPMWD, seed),
				reread.SoftKey(seed),
			} {
				recs, ok, err := st.Load(k)
				if err != nil || !ok {
					t.Fatalf("%s: load ok=%v err=%v", k.ID(), ok, err)
				}
				var buf bytes.Buffer
				if err := st.ExportJSONL(k.ID(), &buf); err != nil {
					t.Fatal(err)
				}
				back, err := results.ReadJSONL(&buf, -1)
				if err != nil || len(back) != len(recs) {
					t.Fatalf("%s: re-read %d of %d records, err=%v", k.ID(), len(back), len(recs), err)
				}
				for i := range back {
					if back[i] != recs[i] {
						t.Fatalf("%s: record %d mutated through JSONL round trip", k.ID(), i)
					}
				}
			}
		})
	}
}
