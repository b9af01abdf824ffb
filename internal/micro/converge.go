package micro

import (
	"bytes"
	"slices"
)

// StateEqual reports whether two cores are bit-identical in every field
// that can influence future execution. It is the convergence test of
// the early-stop engine (internal/inject): a faulty core that is
// StateEqual to the golden snapshot taken at the same cycle — with RAM
// equality established separately via dirty-page comparison — must
// produce exactly the golden outcome, because Step is a deterministic
// function of this state.
//
// Deliberately excluded:
//   - RAM contents (Bus.Mem): the caller compares only the pages the
//     two runs dirtied differently, using mem dirty tracking.
//   - Taint bookkeeping (c.Taint): measurement state, not machine
//     state. Taint *in storage* is NOT excluded — prfTaint, ROB/LSQ
//     taint flags, cache taint bytes and RAM taint maps are all
//     compared, so equality implies no corrupted value is still live
//     anywhere. A contact already recorded before convergence keeps
//     its HVF/FPM outcome, exactly as in a run to completion.
//   - The decode memo and OnCommit hook: derived/observer state.
func (c *Core) StateEqual(o *Core) bool {
	// Cheap scalar state first: almost every non-converged boundary
	// exits here.
	if c.Cycle != o.Cycle || c.Instret != o.Instret || c.KInstr != o.KInstr ||
		c.seq != o.seq || c.mode != o.mode ||
		c.fetchPC != o.fetchPC || c.fetchStall != o.fetchStall {
		return false
	}
	if c.robHead != o.robHead || c.robTail != o.robTail || c.robCount != o.robCount ||
		c.lqH != o.lqH || c.lqT != o.lqT || c.lqN != o.lqN ||
		c.sqH != o.sqH || c.sqT != o.sqT || c.sqN != o.sqN {
		return false
	}
	if c.csr != o.csr || c.retRAT != o.retRAT || c.frontRAT != o.frontRAT {
		return false
	}
	if !slices.Equal(c.prf, o.prf) || !slices.Equal(c.prfReady, o.prfReady) ||
		!slices.Equal(c.prfTaint, o.prfTaint) ||
		// The free list is ordered state: allocation order shapes all
		// future renaming.
		!slices.Equal(c.freeList, o.freeList) {
		return false
	}
	// The full ROB array, stale slots included: completion-ring entries
	// guard against reuse by comparing the slot's seq, so a stale
	// slot's contents decide whether an in-flight completion lands.
	if !slices.Equal(c.rob, o.rob) || !slices.Equal(c.iq, o.iq) ||
		!slices.Equal(c.lq, o.lq) || !slices.Equal(c.sq, o.sq) {
		return false
	}
	// The fetch queues as sequences: where a ring starts is not state.
	if c.fqN != o.fqN {
		return false
	}
	for i := range c.fqN {
		if *c.fqAt(i) != *o.fqAt(i) {
			return false
		}
	}
	for i := range c.ring {
		if !slices.Equal(c.ring[i], o.ring[i]) {
			return false
		}
	}
	if !c.bp.stateEqual(o.bp) {
		return false
	}
	if !c.l1i.stateEqual(o.l1i) || !c.l1d.stateEqual(o.l1d) || !c.l2.stateEqual(o.l2) {
		return false
	}
	if !taintsEqual(c.ram.taints, o.ram.taints) {
		return false
	}
	return c.Bus.StateEqual(o.Bus)
}

func (bp *branchPred) stateEqual(o *branchPred) bool {
	return bp.rasTop == o.rasTop &&
		slices.Equal(bp.counters, o.counters) &&
		slices.Equal(bp.btbTag, o.btbTag) &&
		slices.Equal(bp.btbTgt, o.btbTgt) &&
		slices.Equal(bp.ras, o.ras)
}

// stateEqual compares two same-geometry cache levels: the LRU clock,
// every line's metadata, the full data backing, and the taint bytes
// (a nil taint slice is all-zero).
func (c *cache) stateEqual(o *cache) bool {
	if c.tick != o.tick {
		return false
	}
	for si := range c.sets {
		for wi := range c.sets[si] {
			a, b := &c.sets[si][wi], &o.sets[si][wi]
			if a.valid != b.valid || a.dirty != b.dirty || a.tag != b.tag || a.lru != b.lru {
				return false
			}
			if !taintSliceEqual(a.taint, b.taint) {
				return false
			}
		}
	}
	return bytes.Equal(c.backing, o.backing)
}

func taintSliceEqual(a, b []taintMask) bool {
	switch {
	case a == nil:
		a, b = b, a
		fallthrough
	case b == nil:
		for _, m := range a {
			if m != 0 {
				return false
			}
		}
		return true
	default:
		return slices.Equal(a, b)
	}
}

// taintsEqual compares two RAM taint maps, treating absent keys as
// zero (writeLine deletes cleared entries, but flip paths may leave
// explicit zeroes behind).
func taintsEqual(a, b map[uint64]taintMask) bool {
	//lint:ordered pure all-pairs comparison; no order-dependent effect
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	//lint:ordered pure all-pairs comparison; no order-dependent effect
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}
