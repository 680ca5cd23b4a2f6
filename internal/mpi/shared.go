package mpi

// SharedCell is a harness-level cell visible to every rank of a job.
// Because the simulation kernel runs exactly one process at a time,
// plain reads and writes are race-free; the cell carries no virtual
// cost and must therefore never stand in for real communication — it
// exists so measurement harnesses (package mpib, the estimation
// rounds) can coordinate repetition counts and exchange timing samples
// out of band, the way a real benchmark would use a side channel or
// pre-agreed script.
//
// The harness rule: a measurement keeps its samples and its stopping
// decision once, in its cell. After a repetition's closing HardSync
// the first rank to run records the samples and decides for every
// rank; the others read that decision. One process at a time makes
// this safe, and the decision is the one each rank would have derived
// from the same samples, so the cell saves host work without moving
// virtual time.
type SharedCell struct {
	V any
}

// SharedCell returns the cell associated with this call site: the k-th
// call on every rank returns the same cell (SPMD lockstep), so all
// ranks of one harness step share state without messages.
func (r *Rank) SharedCell() *SharedCell {
	seq := r.w.cellSeq[r.rank]
	r.w.cellSeq[r.rank]++
	if c, ok := r.w.cells[seq]; ok {
		return c
	}
	c := &SharedCell{}
	r.w.cells[seq] = c
	return c
}
