package micro

import "vulnstack/internal/isa"

// The predecoded fetch cache removes isa.Decode from the per-cycle
// fetch loop of every golden and faulty run. It is a direct-mapped memo
// indexed by word-aligned PC whose *tag is the fetched instruction word
// itself*: isa.Decode is a pure function of (word, ISA), so a hit with
// a matching word is correct regardless of which PC produced it, and
// any change to the word — a store to the page, an injected L1i data
// flip, a corrupted tag serving unrelated bytes — misses the tag
// compare and re-decodes. Invalidation is therefore structural: there
// is no flush to forget, and the memo can never serve a stale decode.
//
// Taint classification (fetchTaint/fetchWI) stays outside the memo in
// fetchStage: it depends on the L1i taint bytes, not on the decode.

// decodeBits sizes the memo at 2^decodeBits entries (covers 16 KiB of
// text per generation; colliding PCs just alternate, still correct).
const decodeBits = 12

// decodeEnt is one memo slot. state distinguishes an empty slot from a
// cached "word does not decode" result.
type decodeEnt struct {
	word  uint32
	in    isa.Instr
	state uint8 // 0 empty, 1 decodes to in, 2 illegal
}

// decode is the memoized isa.Decode used by fetchStage.
func (c *Core) decode(pc uint64, word uint32) (isa.Instr, bool) {
	if c.Cfg.Reference {
		return isa.Decode(word, c.IS)
	}
	if c.decodeMemo == nil {
		c.decodeMemo = make([]decodeEnt, 1<<decodeBits)
	}
	e := &c.decodeMemo[(pc>>2)&(1<<decodeBits-1)]
	if e.state != 0 && e.word == word {
		return e.in, e.state == 1
	}
	in, ok := isa.Decode(word, c.IS)
	e.word, e.in = word, in
	if ok {
		e.state = 1
	} else {
		e.state = 2
	}
	return in, ok
}
