package ckpt

// ClaimStateLen returns a one-checkpoint chain with ch's meta and first
// coordinate and probe whose RAM and state images store no chunk, the
// RAM image Meta.RAMBytes long and the state blob n bytes long: as
// consistent to Decode as any chain (an unstored chunk reads as zero),
// and, for an n past every engine's layout, the digest-valid chain a
// sane writer never produces.
func ClaimStateLen(ch *Chain, n int) *Chain {
	out := New(ch.Meta)
	out.coords, out.probes, out.aux = []uint64{ch.coords[0]}, []uint64{ch.probes[0]}, [][]byte{nil}
	out.ram = &deltaSpace{lens: []int{ch.Meta.RAMBytes}, perCkpt: [][]int32{nil}}
	out.state = &deltaSpace{lens: []int{n}, perCkpt: [][]int32{nil}}
	return out
}
