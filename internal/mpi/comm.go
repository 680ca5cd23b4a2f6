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
	id      int   // the member set's number: its block of the tag space
}

// commSet is a member set's entry in the world's communicator registry.
type commSet struct {
	id  int   // sets are numbered in the order of their first construction
	seq []int // per-world-rank collective sequence counters
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
	if r.w.comms == nil {
		r.w.comms = map[string]commSet{}
	}
	set, ok := r.w.comms[key]
	if !ok {
		set = commSet{id: len(r.w.comms), seq: make([]int, r.w.n)}
		r.w.comms[key] = set
	}
	return &Comm{r: r, members: append([]int(nil), members...), myRank: my, seq: set.seq, id: set.id}, nil
}

// commKey canonicalizes a member list for the world's registry (order
// matters for rank numbering but not for the key: communicators of the
// same set, created in any order, share its number and sequences, and
// distinct sets never share a tag).
func commKey(members []int) string {
	s := append([]int(nil), members...)
	sort.Ints(s)
	return fmt.Sprint(s)
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
// collectives' tags, which are negative for the same reason.
func (c *Comm) nextTag(op int) int {
	seq := c.seq[c.r.rank]
	c.seq[c.r.rank]++
	return -(commTagSpace + c.id*(1<<20) + (seq%(1<<16))*16 + op)
}

// Send transmits data to comm rank dst.
func (c *Comm) Send(dst, tag int, data []byte) {
	if tag < 0 || tag > MaxUserTag {
		badInput("send", "user tag %d out of range [0, %d]", tag, MaxUserTag)
	}
	c.r.send(c.members[dst], tag, data)
}

// Recv receives from comm rank src (or AnySource) and returns the
// payload with the status translated to comm ranks. Like Rank.Recv, it
// takes a user tag or AnyTag, which matches user tags only. Messages
// from non-members do not match a specific src; with AnySource they
// would — callers mixing world point-to-point and comm traffic should
// partition their tags.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	if !recvTag(tag) {
		badInput("recv", "user tag %d out of range [0, %d]", tag, MaxUserTag)
	}
	return c.group().recv(src, tag)
}

// group returns the communicator as a collective's rank space.
func (c *Comm) group() group { return group{r: c.r, members: c.members, me: c.myRank} }

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
	if c.myRank == root {
		checkScatterBlocks("comm scatter", blocks, c.Size())
	}
	return view(c.group().scatter("comm scatter", tag, tree, blocks, nil))
}

// Gather collects equal-size blocks at the comm root; the root receives
// them indexed by comm rank, others get nil.
func (c *Comm) Gather(alg Alg, root int, block []byte) [][]byte {
	tag := c.nextTag(opGather)
	tree := c.tree("comm gather", alg, root)
	return views(c.group().gather("comm gather", tag, tree, block, nil, nil))
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
		data, _ = c.r.recv(c.members[tree.Parent[c.myRank]], tag)
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
		c.r.recv(from, tag)
	}
}
