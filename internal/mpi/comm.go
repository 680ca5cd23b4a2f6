package mpi

import (
	"fmt"
	"sort"

	"repro/internal/collective"
)

// Comm is a sub-communicator: an ordered subset of world ranks with its
// own rank numbering, over which the collective operations run without
// involving the other processes — the construct behind running
// non-overlapping experiments or application phases side by side.
//
// Every member must construct the communicator with the same member
// list (in the same order) and use it in lockstep, exactly like an MPI
// communicator obtained from the same MPI_Comm_split call.
type Comm struct {
	r       *Rank
	members []int // world ranks, comm rank = index
	myRank  int   // this process's comm rank
	seq     []int // per-world-rank collective sequence counters (lockstep)
	id      int   // tag-space discriminator derived from the members
}

// CommOf builds the communicator containing the given world ranks (in
// comm-rank order). The calling rank must be a member. Duplicate or
// out-of-range members are rejected.
func (r *Rank) CommOf(members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("mpi: empty communicator")
	}
	seen := map[int]bool{}
	my := -1
	for i, m := range members {
		if m < 0 || m >= r.w.n {
			return nil, fmt.Errorf("mpi: member %d out of range", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("mpi: duplicate member %d", m)
		}
		seen[m] = true
		if m == r.rank {
			my = i
		}
	}
	if my == -1 {
		return nil, fmt.Errorf("mpi: rank %d is not a member of %v", r.rank, members)
	}
	key := commKey(members)
	if r.w.commSeq == nil {
		r.w.commSeq = map[string][]int{}
	}
	seq, ok := r.w.commSeq[key]
	if !ok {
		seq = make([]int, r.w.n)
		r.w.commSeq[key] = seq
	}
	return &Comm{r: r, members: append([]int(nil), members...), myRank: my, seq: seq, id: commID(members)}, nil
}

// commKey canonicalizes a member list for the shared-sequence registry
// (order matters for rank numbering but not for the key: the same set
// reuses the same sequence, preventing tag collisions between
// same-set communicators created in different orders).
func commKey(members []int) string {
	s := append([]int(nil), members...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// commID folds the member set into a small tag-space discriminator.
func commID(members []int) int {
	h := 0
	s := append([]int(nil), members...)
	sort.Ints(s)
	for _, m := range s {
		h = h*31 + m + 1
	}
	if h < 0 {
		h = -h
	}
	return h % 1021 // prime < 1024
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// World returns the world rank of comm rank i.
func (c *Comm) World(i int) int { return c.members[i] }

// commTagSpace sits above the world-collective tag space.
const commTagSpace = 1 << 30

// nextTag reserves the tag block of the next collective on this
// communicator. Each member advances its own counter; SPMD lockstep
// within the comm keeps the counters aligned, exactly like the world
// collectives' tags.
func (c *Comm) nextTag(op int) int {
	seq := c.seq[c.r.rank]
	c.seq[c.r.rank]++
	return commTagSpace + c.id*(1<<20) + (seq%(1<<16))*16 + op
}

// Send transmits data to comm rank dst.
func (c *Comm) Send(dst, tag int, data []byte) {
	if tag < 0 || tag > MaxUserTag {
		badInput("send", "user tag %d out of range [0, %d]", tag, MaxUserTag)
	}
	c.r.send(c.members[dst], tag, data)
}

// Recv receives from comm rank src (or AnySource) and returns the
// payload with the status translated to comm ranks. Messages from
// non-members do not match a specific src; with AnySource they would —
// callers mixing world point-to-point and comm traffic should
// partition their tags.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	worldSrc := src
	if src != AnySource {
		worldSrc = c.members[src]
	}
	data, st := c.r.Recv(worldSrc, tag)
	st.Source = c.rankOfWorld(st.Source)
	return data, st
}

func (c *Comm) rankOfWorld(w int) int {
	for i, m := range c.members {
		if m == w {
			return i
		}
	}
	return -1
}

// tree returns the shared communication tree of a collective over the
// communicator, rejecting a root outside it as invalid input.
func (c *Comm) tree(op string, alg Alg, root int) *collective.Tree {
	if root < 0 || root >= c.Size() {
		badInput(op, "root %d out of range [0, %d)", root, c.Size())
	}
	return alg.Tree(c.Size(), root)
}

// Scatter distributes blocks (indexed by comm rank, meaningful at the
// root) over the communicator and returns this member's block.
func (c *Comm) Scatter(alg Alg, root int, blocks [][]byte) []byte {
	tag := c.nextTag(opScatter)
	tree := c.tree("comm scatter", alg, root)
	n := c.Size()
	if c.myRank == root {
		checkScatterBlocks("comm scatter", blocks, n)
	}
	if n == 1 {
		return blocks[root]
	}
	if c.myRank == root {
		for _, cc := range tree.Children[root] {
			c.r.send(c.members[cc], tag, concatRel(blocks, tree, cc))
		}
		return blocks[root]
	}
	payload, _ := c.r.Recv(c.members[tree.Parent[c.myRank]], tag)
	size := tree.SubtreeSize[c.myRank]
	if size == 0 || len(payload)%size != 0 {
		panic("mpi: comm scatter batch not divisible")
	}
	bs := len(payload) / size
	lo, _ := tree.RelRange(c.myRank)
	for _, cc := range tree.Children[c.myRank] {
		clo, chi := tree.RelRange(cc)
		c.r.send(c.members[cc], tag, payload[(clo-lo)*bs:(chi-lo)*bs])
	}
	return payload[:bs]
}

// Gather collects equal-size blocks at the comm root; the root receives
// them indexed by comm rank, others get nil.
func (c *Comm) Gather(alg Alg, root int, block []byte) [][]byte {
	tag := c.nextTag(opGather)
	tree := c.tree("comm gather", alg, root)
	n := c.Size()
	if n == 1 {
		return [][]byte{append([]byte(nil), block...)}
	}
	bs := len(block)
	lo, hi := tree.RelRange(c.myRank)
	batch := make([]byte, (hi-lo)*bs)
	copy(batch, block)
	for range tree.Children[c.myRank] {
		payload, st := c.Recv(AnySource, tag)
		clo, chi := tree.RelRange(st.Source)
		if len(payload) != (chi-clo)*bs {
			badInput("comm gather", "blocks must have equal size: batch from member %d has %d bytes, want %d", st.Source, len(payload), (chi-clo)*bs)
		}
		copy(batch[(clo-lo)*bs:(chi-lo)*bs], payload)
	}
	if c.myRank == root {
		out := make([][]byte, n)
		for rel := 0; rel < n; rel++ {
			abs := (rel + root) % n
			out[abs] = batch[rel*bs : (rel+1)*bs : (rel+1)*bs]
		}
		return out
	}
	c.r.send(c.members[tree.Parent[c.myRank]], tag, batch)
	return nil
}

// Bcast sends data from the comm root to every member over a binomial
// tree and returns it on every member.
func (c *Comm) Bcast(root int, data []byte) []byte {
	tag := c.nextTag(opBcast)
	tree := c.tree("comm bcast", Binomial, root)
	if c.Size() == 1 {
		return data
	}
	if c.myRank != root {
		data, _ = c.r.Recv(c.members[tree.Parent[c.myRank]], tag)
	}
	for _, cc := range tree.Children[c.myRank] {
		c.r.send(c.members[cc], tag, data)
	}
	return data
}

// Barrier synchronizes the communicator's members (dissemination).
func (c *Comm) Barrier() {
	tag := c.nextTag(opBarrier)
	n := c.Size()
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		to := c.members[(c.myRank+k)%n]
		from := c.members[(c.myRank-k+n)%n]
		c.r.send(to, tag, nil)
		c.r.Recv(from, tag)
	}
}
