package ckpt

import (
	"fmt"

	"vulnstack/internal/mem"
)

// Machine is an engine's machine as the checkpoint driver sees it: the
// golden machine Capture checkpoints and the worker arena a Cursor
// restores and runs. Coordinates are the engine's own (cycles,
// committed instructions or definitions), and the RAM tracks its dirty
// pages.
type Machine interface {
	// Coord returns the machine's coordinate.
	Coord() uint64
	// RunTo runs until the coordinate reaches c or the machine ends, and
	// reports whether it has ended. A machine at or past c does not run.
	RunTo(c uint64) (ended bool)
	// Probe folds the machine's scalar state into the cheap gate of the
	// convergence test.
	Probe() uint64
	// Memory returns the machine's RAM.
	Memory() *mem.Memory
	// Encode rewrites blob, the machine's state blob as of the previous
	// call (empty before the first), to its canonical state blob now, and
	// appends to changed the chunks of it that can differ.
	Encode(blob []byte, changed []int) ([]byte, []int)
	// Aux returns the restore-only bytes the next checkpoint carries.
	Aux() []byte
	// Restore sets the machine's state, but not its RAM, to checkpoint
	// g's: cu.Blob() holds g's state blob, and cu.At() is the checkpoint
	// the machine was restored from before (-1 if none).
	Restore(cu *Cursor, g int) error
	// Matches reports whether the machine, restored from cu.At() and run
	// to checkpoint j's coordinate with the probe equal to j's, is in
	// j's state, RAM included.
	Matches(cu *Cursor, j int) bool
}

// Capture checkpoints the golden machine m into ch at the coordinates
// 0, step, 2·step, … below length, where step = max(length/nsnaps, 1);
// nsnaps <= 1 keeps coordinate 0 alone. m starts at coordinate 0. A
// coordinate m has already captured is skipped, and capture stops once
// m ends. Each checkpoint compares only the pages m dirtied and the
// state chunks Encode reports.
func Capture(ch *Chain, m Machine, length uint64, nsnaps int) {
	step := length
	if nsnaps > 1 {
		step /= uint64(nsnaps)
	}
	step = max(step, 1)
	ram := m.Memory()
	var blob []byte
	var pages, chunks []int
	for next := uint64(0); next == 0 || next < length; next += step {
		ended := m.RunTo(next)
		if n := ch.Len(); n == 0 || m.Coord() > ch.Coord(n-1) {
			blob, chunks = m.Encode(blob, chunks[:0])
			pages = ram.TakeDirtyPages(pages[:0])
			ch.Add(m.Coord(), m.Probe(), ram.Bytes(), pages, blob, chunks, m.Aux())
		}
		if ended {
			return
		}
	}
}

// Cursor restores one worker arena along a chain and runs it: it keeps
// the checkpoint the arena was last restored from, that checkpoint's
// materialized state blob and the chunk-list scratch, so a restore
// delta-walks from there.
type Cursor struct {
	ch     *Chain
	m      Machine
	src    int
	state  []byte
	chunks []int
}

// NewCursor starts a cursor over a fresh arena m: no checkpoint
// restored yet, and RAM all zeroes or checkpoint 0's.
func NewCursor(ch *Chain, m Machine) *Cursor {
	return &Cursor{ch: ch, m: m, src: -1}
}

// Chain returns the cursor's chain.
func (cu *Cursor) Chain() *Chain { return cu.ch }

// At returns the checkpoint the arena was last restored from (-1 before
// the first restore).
func (cu *Cursor) At() int { return cu.src }

// Blob returns the state blob of the checkpoint being or last restored.
func (cu *Cursor) Blob() []byte { return cu.state }

// Changed lists, sorted, the state chunks that can differ between
// checkpoints At() and j, in scratch the next call reuses.
func (cu *Cursor) Changed(j int) []int {
	cu.chunks = cu.ch.StateChunks(cu.src, j, cu.chunks[:0])
	return cu.chunks
}

// Restore sets the arena to checkpoint g: its state blob, materialized
// by delta walk, and its RAM, on the pages the arena dirtied and the
// chunks with versions between the two checkpoints. A chain that passed
// its engine's validation never fails to restore; one that does panics.
func (cu *Cursor) Restore(g int) {
	cu.state = cu.ch.StateAt(g, cu.state, cu.src)
	if err := cu.m.Restore(cu, g); err != nil {
		panic(fmt.Sprintf("ckpt: %s checkpoint %d restore: %v", cu.ch.Meta.Engine, g, err))
	}
	cu.ch.RestoreRAM(cu.m.Memory(), cu.src, g)
	cu.src = g
}

// Run runs the arena, restored from checkpoint At() and since given its
// fault, to its end or its coordinate limit, pausing at every later
// checkpoint: a boundary the arena is already past is skipped, one past
// limit is clamped to it, and at each boundary reached where coordinate
// and probe equal the checkpoint's, the machine's own compare decides.
// It reports whether the arena ended, or converged: it equals the golden
// run at a checkpoint, so the rest of its run is golden's.
func (cu *Cursor) Run(limit uint64) (ended, converged bool) {
	ch, m := cu.ch, cu.m
	for j := cu.src + 1; j < ch.Len(); j++ {
		c := ch.Coord(j)
		if c < m.Coord() {
			continue
		}
		if m.RunTo(min(c, limit)) {
			return true, false
		}
		if m.Coord() == c && m.Probe() == ch.Probe(j) && m.Matches(cu, j) {
			return false, true
		}
	}
	return m.RunTo(limit), false
}
