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
// decision once, in its cell. After a repetition's closing barrier
// one rank records the samples and decides for every rank of the
// measurement; the others read that decision. One process at a time makes
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
	if seq < len(r.w.cells) {
		return r.w.cells[seq]
	}
	// The first rank to make its k-th call has made the k before it, so
	// the cells stay dense in the call sequence. A recycled world keeps
	// its cells and empties them for each job.
	c := &SharedCell{}
	r.w.cells = append(r.w.cells, c)
	return c
}
