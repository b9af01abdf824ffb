// The persistent campaign store: per-injection records on disk as
// append-only columnar segments (see internal/colseg for the block wire
// format), one manifest JSON per campaign, keyed by the campaign's full
// identity (layer, target, config, structure/FPM, seed). Campaign
// length is manifest data, not key material: because fault sequences
// are pre-drawn from the seed, a stored n=1000 campaign is a strict
// prefix of the n=2000 campaign, so topping up appends only the missing
// records and the merged tally is bit-identical to a one-shot run.
//
// The store reads and writes exactly one format: schema-3 columnar
// segments. Any other manifest is rejected with an error naming the
// campaign. JSONL is the interchange/debug format only: ExportJSONL
// streams a stored campaign out, and WriteJSONL/ReadJSONL convert
// record slices; the store itself never holds JSONL.
package results

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vulnstack/internal/colseg"
)

// SchemaVersion is the on-disk record schema: every block carries all
// fifteen record columns, including the stratum (added in v2) and the
// static-resolution provenance bitset (added in v3). The store reads
// only this version; loads of any other fail loudly rather than
// silently misaggregating.
const SchemaVersion = 3

// FormatColumnar is the only record file format a manifest may name.
const FormatColumnar = "columnar"

// SegExt is the extension of a campaign's columnar segment file.
const SegExt = ".seg"

// Key is the full identity of one stored campaign. Two runs with equal
// keys draw identical fault sequences, so their record sets are
// prefix-compatible for any n.
type Key struct {
	// Layer is the injector: "micro", "arch" or "soft".
	Layer string `json:"layer"`
	// Target identifies the program under injection, including its
	// build inputs and ISA (bench/seed/scale/harden/ISA).
	Target string `json:"target"`
	// Config is the microarchitecture name (micro layer only).
	Config string `json:"config,omitempty"`
	// Struct is the structure (micro) or FPM (arch) under injection.
	Struct string `json:"struct,omitempty"`
	// Seed drives the pre-drawn fault sequence.
	Seed int64 `json:"seed"`
	// Mode distinguishes sampling regimes that draw different fault
	// sequences from the same (layer, target, config, struct, seed) —
	// e.g. a stratified campaign's plan parameters and partition
	// fingerprint. Empty for uniform campaigns, whose IDs predate the
	// field and stay unchanged.
	Mode string `json:"mode,omitempty"`
}

func (k Key) String() string {
	s := k.Layer + "/" + k.Target + "/" + k.Config + "/" + k.Struct + "/seed=" + strconv.FormatInt(k.Seed, 10)
	if k.Mode != "" {
		s += "/mode=" + k.Mode
	}
	return s
}

// ID is the key's stable store filename stem.
func (k Key) ID() string {
	h := sha256.Sum256([]byte(k.String()))
	var id [16]byte
	hex.Encode(id[:], h[:8])
	return string(id[:])
}

// Manifest describes one stored campaign.
type Manifest struct {
	Schema int `json:"schema"`
	Key    Key `json:"key"`
	// N is the number of records on disk (grows on top-up).
	N int `json:"n"`
	// Format is the record file representation, always FormatColumnar.
	Format string `json:"format,omitempty"`
}

// Store is a directory of campaign record files. It assumes a single
// writer process; concurrent goroutines within that process are safe.
type Store struct {
	dir string
	mu  sync.Mutex
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath(id string) string { return filepath.Join(s.dir, id+".json") }
func (s *Store) segPath(id string) string      { return filepath.Join(s.dir, id+SegExt) }

// readManifest loads a manifest by id; ok=false when absent. A manifest
// of any schema but SchemaVersion, or of any format but columnar (JSONL
// stores from before the columnar plane), is an error.
func (s *Store) readManifest(id string) (Manifest, bool, error) {
	data, err := os.ReadFile(s.manifestPath(id))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("results: manifest %s: %w", id, err)
	}
	if m.Schema != SchemaVersion || m.Format != FormatColumnar {
		return Manifest{}, false, fmt.Errorf("results: campaign %s has schema %d format %q; this store reads only schema %d %s",
			id, m.Schema, m.Format, SchemaVersion, FormatColumnar)
	}
	return m, true, nil
}

// writeManifest writes m as the manifest of campaign id (m.Key.ID()).
func (s *Store) writeManifest(id string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := s.manifestPath(id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Manifest returns the stored manifest for k; ok=false when the
// campaign has never been stored.
func (s *Store) Manifest(k Key) (Manifest, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifestFor(k.ID(), k)
}

// manifestFor reads the manifest of campaign k, whose id is k.ID().
func (s *Store) manifestFor(id string, k Key) (Manifest, bool, error) {
	m, ok, err := s.readManifest(id)
	if err != nil || !ok {
		return Manifest{}, ok, err
	}
	if m.Key != k {
		return Manifest{}, false, fmt.Errorf("results: id collision: %q vs %q", m.Key, k)
	}
	return m, true, nil
}

// cursor opens a streaming cursor over the first n records of a
// campaign. Callers hold s.mu; the returned cursor is used
// (and closed) outside it — safe because writers never rewrite served
// bytes, they only append past them.
func (s *Store) cursor(id string, n int, f Filter) (*Cursor, error) {
	file, err := os.Open(s.segPath(id))
	if err != nil {
		return nil, err
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, err
	}
	return newCursor(file, fi.Size(), file, id, n, f), nil
}

// Load returns the stored records for k in index order; ok=false when
// the campaign has never been stored.
func (s *Store) Load(k Key) ([]Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := k.ID()
	m, ok, err := s.manifestFor(id, k)
	if err != nil || !ok {
		return nil, ok, err
	}
	recs, err := s.loadRecords(id, m)
	if err != nil {
		return nil, false, err
	}
	return recs, true, nil
}

// LoadID loads a stored campaign by its id (the results CLI surface).
func (s *Store) LoadID(id string) (Manifest, []Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok, err := s.readManifest(id)
	if err != nil {
		return Manifest{}, nil, err
	}
	if !ok {
		return Manifest{}, nil, fmt.Errorf("results: no stored campaign %q", id)
	}
	recs, err := s.loadRecords(id, m)
	return m, recs, err
}

// loadRecords materializes a campaign's records. Callers hold s.mu.
func (s *Store) loadRecords(id string, m Manifest) ([]Record, error) {
	c, err := s.cursor(id, m.N, Filter{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Records()
}

// Cursor opens a streaming cursor over the stored records for k with
// the filter pushed down (only the columns the filter and the consumer
// read are ever decoded); ok=false when the campaign has never been
// stored. The caller must Close the cursor.
func (s *Store) Cursor(k Key, f Filter) (*Cursor, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := k.ID()
	m, ok, err := s.manifestFor(id, k)
	if err != nil || !ok {
		return nil, ok, err
	}
	c, err := s.cursor(id, m.N, f)
	if err != nil {
		return nil, false, err
	}
	return c, true, nil
}

// CursorID opens a streaming filtered cursor by campaign id (the
// results CLI surface). The caller must Close the cursor.
func (s *Store) CursorID(id string, f Filter) (Manifest, *Cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok, err := s.readManifest(id)
	if err != nil {
		return Manifest{}, nil, err
	}
	if !ok {
		return Manifest{}, nil, fmt.Errorf("results: no stored campaign %q", id)
	}
	c, err := s.cursor(id, m.N, f)
	if err != nil {
		return Manifest{}, nil, err
	}
	return m, c, nil
}

// TallyUpTo aggregates the first min(n, stored) records of k through
// the streaming columnar path and returns that tally with the stored
// record count, reading the manifest once; ok=false (with a zero tally)
// when the campaign has never been stored. A caller that wants n records
// gets in one call both what the store can serve and where a top-up
// must start.
func (s *Store) TallyUpTo(k Key, n int) (t Tally, stored int, ok bool, err error) {
	id := k.ID()
	s.mu.Lock()
	m, ok, err := s.manifestFor(id, k)
	var c *Cursor
	if err == nil && ok {
		if c, err = s.cursor(id, m.N, Filter{}); err == nil {
			c.want = min(n, m.N)
		}
	}
	s.mu.Unlock()
	if err != nil || !ok {
		return Tally{}, 0, false, err
	}
	defer c.Close()
	t, err = c.Tally()
	return t, m.N, true, err
}

// TallyPrefix aggregates the first n stored records of k through the
// streaming columnar path: o(n) memory, only the outcome, visibility
// and FPM columns decoded. The result is bit-identical to
// TallyOf(Load(k)[:n]). Fewer than n stored records is an error.
func (s *Store) TallyPrefix(k Key, n int) (Tally, error) {
	t, stored, ok, err := s.TallyUpTo(k, n)
	switch {
	case err != nil:
		return Tally{}, err
	case !ok:
		return Tally{}, fmt.Errorf("results: no stored campaign %q", k)
	case stored < n:
		return Tally{}, fmt.Errorf("results: campaign %q has %d records, want prefix %d", k, stored, n)
	}
	return t, nil
}

// segRowsOffset walks a segment's blocks and returns the byte offset
// just past the block that completes row n. Appends truncate to it
// first, so a crashed append's torn tail bytes can never corrupt the
// next append.
func segRowsOffset(data []byte, n int) (int, error) {
	off, rows := 0, 0
	for rows < n {
		blk, consumed, err := colseg.Parse(data[off:])
		if err != nil {
			return 0, err
		}
		off += consumed
		rows += blk.Rows()
	}
	if rows != n {
		return 0, fmt.Errorf("colseg: block boundary at %d rows overshoots %d", rows, n)
	}
	return off, nil
}

// appendSeg appends recs to a campaign segment as fresh blocks,
// truncating any torn tail from a crashed earlier append first.
func (s *Store) appendSeg(id string, haveRows int, recs []Record) error {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off, err := segRowsOffset(data, haveRows)
	if err != nil {
		return fmt.Errorf("results: %s: %w", id, err)
	}
	if off < len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeColumnar(recs)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Save stores a fresh campaign, replacing any previous records for k.
func (s *Store) Save(k Key, recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := k.ID()
	tmp := s.segPath(id) + ".tmp"
	os.Remove(tmp)
	if err := os.WriteFile(tmp, encodeColumnar(recs), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.segPath(id)); err != nil {
		return err
	}
	return s.writeManifest(id, Manifest{Schema: SchemaVersion, Key: k, N: len(recs), Format: FormatColumnar})
}

// Append tops up a stored campaign with records continuing its
// pre-drawn fault sequence: recs[0].Index must equal the stored N. The
// manifest is updated last, so a crash mid-append leaves a loadable
// prefix.
func (s *Store) Append(k Key, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := k.ID()
	m, ok, err := s.manifestFor(id, k)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("results: append to unknown campaign %q", k)
	}
	if recs[0].Index != m.N {
		return fmt.Errorf("results: non-contiguous append: have %d records, next starts at %d", m.N, recs[0].Index)
	}
	if err := s.appendSeg(id, m.N, recs); err != nil {
		return err
	}
	m.N += len(recs)
	return s.writeManifest(id, m)
}

// ExportJSONL streams a stored campaign's records to w in the JSONL
// interchange format. Memory stays bounded by one block.
func (s *Store) ExportJSONL(id string, w io.Writer) error {
	_, c, err := s.CursorID(id, Filter{})
	if err != nil {
		return err
	}
	defer c.Close()
	bw := bufio.NewWriter(w)
	err = c.Each(func(r Record) error {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		bw.Write(data)
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ChainExt is the file extension of persisted checkpoint chains. The
// store treats chains as opaque bytes keyed by their config/seed
// fingerprint (internal/ckpt encodes, decodes and digest-protects
// them); List() never confuses them with campaign manifests because it
// only reads *.json.
const ChainExt = ".ckpt"

func (s *Store) chainPath(fp string) string { return filepath.Join(s.dir, fp+ChainExt) }

// validChainFP guards the fingerprint-as-filename contract (hex from
// ckpt.Fingerprint) against path tricks in CLI-supplied values.
func validChainFP(fp string) bool {
	if fp == "" || len(fp) > 128 {
		return false
	}
	for _, c := range fp {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// SaveChain persists an encoded checkpoint chain under its fingerprint,
// atomically replacing any previous chain with the same identity.
func (s *Store) SaveChain(fp string, data []byte) error {
	if !validChainFP(fp) {
		return fmt.Errorf("results: invalid chain fingerprint %q", fp)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.chainPath(fp)
	tmp := path + ".tmp"
	os.Remove(tmp)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadChain returns the persisted chain bytes for fp; ok=false when no
// chain with that fingerprint is stored.
func (s *Store) LoadChain(fp string) ([]byte, bool, error) {
	if !validChainFP(fp) {
		return nil, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.chainPath(fp))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// ListChains returns the fingerprints of every persisted checkpoint
// chain in the store, sorted.
func (s *Store) ListChains() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var fps []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ChainExt) {
			continue
		}
		if fp := strings.TrimSuffix(name, ChainExt); validChainFP(fp) {
			fps = append(fps, fp)
		}
	}
	sort.Strings(fps)
	return fps, nil
}

// List returns every stored campaign manifest, sorted by key.
func (s *Store) List() ([]Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ms []Manifest
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		m, ok, err := s.readManifest(strings.TrimSuffix(name, ".json"))
		if err != nil || !ok {
			continue // tolerate foreign or half-written files in the dir
		}
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key.String() < ms[j].Key.String() })
	return ms, nil
}
