// Package cluster describes the simulated computational clusters: node
// and link ground-truth characteristics and the TCP-layer irregularity
// profiles of the "MPI implementations" the paper measures (LAM 7.1.3
// and MPICH 1.2.7).
//
// The ground-truth parameters play the role of the physical hardware in
// the paper's Table I: the simulator executes message events against
// them, and the estimation procedures must recover them (or the
// traditional models' conflated views of them) purely from timing
// experiments, exactly as on a real cluster.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/topo"
)

// NodeSpec is the ground truth for one processor: the constant and
// variable processor-side contributions of the LMO model.
type NodeSpec struct {
	Name  string        // host name, e.g. "hcl01"
	Model string        // hardware description, per Table I
	OS    string        // operating system, per Table I
	C     time.Duration // fixed processing delay per message (C_i)
	T     float64       // per-byte processing delay in seconds (t_i)
}

// LinkSpec is the ground truth for one directed link through the
// switch: the constant and variable network-side contributions.
type LinkSpec struct {
	L    time.Duration // fixed network latency (L_ij)
	Beta float64       // transmission rate in bytes/second (β_ij)
}

// Cluster is a set of nodes joined by a switch fabric. Links[i][j]
// describes the access segment of the path i→j (NIC, cabling and the
// first switch port); for a single switch β_ij = β_ji is realistic and
// the builders in this package keep links symmetric.
//
// Topo, when non-nil, adds the multi-switch fabric between the
// endpoints' switches: the simulator forwards each message
// store-and-forward across the route's links on top of the access
// segment. A nil Topo (or a topo.SingleSwitch one) is the paper's
// single-switch platform.
type Cluster struct {
	Nodes []NodeSpec
	Links [][]LinkSpec
	Topo  *topo.Topology
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.Nodes) }

// Validate checks structural consistency (square link matrix, positive
// rates, non-negative delays).
func (c *Cluster) Validate() error {
	n := len(c.Nodes)
	if n == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	if len(c.Links) != n {
		return fmt.Errorf("cluster: link matrix has %d rows, want %d", len(c.Links), n)
	}
	for i, row := range c.Links {
		if len(row) != n {
			return fmt.Errorf("cluster: link row %d has %d entries, want %d", i, len(row), n)
		}
		for j, l := range row {
			if i == j {
				continue
			}
			if l.Beta <= 0 {
				return fmt.Errorf("cluster: link %d->%d has non-positive rate", i, j)
			}
			if l.L < 0 {
				return fmt.Errorf("cluster: link %d->%d has negative latency", i, j)
			}
		}
	}
	for i, nd := range c.Nodes {
		if nd.C < 0 || nd.T < 0 {
			return fmt.Errorf("cluster: node %d has negative delays", i)
		}
	}
	if c.Topo != nil {
		if err := c.Topo.Validate(); err != nil {
			return err
		}
		if c.Topo.Nodes() != n {
			return fmt.Errorf("cluster: topology places %d nodes, cluster has %d", c.Topo.Nodes(), n)
		}
	}
	return nil
}

// uniformLinks builds a symmetric link matrix where every off-diagonal
// pair gets the same spec. The rows share one backing array.
func uniformLinks(n int, spec LinkSpec) [][]LinkSpec {
	all := make([]LinkSpec, n*n)
	links := make([][]LinkSpec, n)
	for i := range links {
		links[i] = all[i*n : (i+1)*n : (i+1)*n]
		for j := range links[i] {
			if i != j {
				links[i][j] = spec
			}
		}
	}
	return links
}

// Homogeneous builds an n-node cluster of identical nodes and links.
func Homogeneous(n int, node NodeSpec, link LinkSpec) *Cluster {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = node
		nodes[i].Name = fmt.Sprintf("node%02d", i)
	}
	return &Cluster{Nodes: nodes, Links: uniformLinks(n, link)}
}

// table1Types mirrors the seven node types of the paper's Table I. The
// C and t ground-truth values are synthetic but ranked plausibly by the
// hardware: faster CPUs and bigger caches give smaller per-message and
// per-byte processing costs.
var table1Types = []struct {
	model string
	os    string
	c     time.Duration
	t     float64 // seconds per byte
	count int
}{
	{"Dell Poweredge SC1425 (3.6 Xeon, 2MB L2)", "FC4", 30 * time.Microsecond, 2.5e-9, 2},
	{"Dell Poweredge 750 (3.4 Xeon, 1MB L2)", "FC4", 35 * time.Microsecond, 3.0e-9, 6},
	{"IBM E-server 326 (1.8 Opteron, 1MB L2)", "Debian", 75 * time.Microsecond, 7.5e-9, 2},
	{"IBM X-Series 306 (3.2 P4, 1MB L2)", "Debian", 45 * time.Microsecond, 3.8e-9, 1},
	{"HP Proliant DL 320 G3 (3.4 P4, 1MB L2)", "FC4", 40 * time.Microsecond, 3.4e-9, 1},
	{"HP Proliant DL 320 G3 (2.9 Celeron, 256KB L2)", "FC4", 95 * time.Microsecond, 1.0e-8, 1},
	{"HP Proliant DL 140 G2 (3.4 Xeon, 1MB L2)", "Debian", 36 * time.Microsecond, 3.0e-9, 3},
}

// table1Order assigns node types (indices into table1Types) to MPI
// ranks. The paper does not publish its rank order; this layout places
// the fast Xeons on the heavy relay positions of the rank-0 binomial
// tree (the chain 0→8→12→14) and the slow Opterons/Celeron at leaf
// positions — the arrangement under which the paper's Fig 6 result
// (Hockney mispredicts binomial < linear scatter) arises, because the
// conflated per-pair parameters make the fast relay path look cheaper
// than n-1 serialized sends while the true linear scatter only pays
// the root's processor time per destination.
var table1Order = [16]int{0, 2, 1, 5, 1, 2, 1, 3, 0, 4, 1, 1, 6, 6, 6, 1}

// Table1 builds the 16-node heterogeneous cluster of the paper's
// Table I: seven node types behind a single Ethernet switch. Link
// latency and bandwidth are uniform (one switch, identical NICs and
// cabling); heterogeneity lives in the processors, which matches the
// paper's single-switch platform where β_ij variation is minor compared
// to processor variation.
func Table1() *Cluster {
	nodes := make([]NodeSpec, len(table1Order))
	for rank, ti := range table1Order {
		t := table1Types[ti]
		nodes[rank] = NodeSpec{
			Name:  fmt.Sprintf("hcl%02d", rank+1),
			Model: t.model,
			OS:    t.os,
			C:     t.c,
			T:     t.t,
		}
	}
	// Gigabit-class Ethernet through one switch: ~45 µs fixed network
	// latency, ~90 MB/s effective rate.
	link := LinkSpec{L: 45 * time.Microsecond, Beta: 9.0e7}
	return &Cluster{Nodes: nodes, Links: uniformLinks(len(nodes), link)}
}

// Table1Hetero builds the same 16 nodes but with per-pair link
// variation (±15% around the base rate, deterministic in the pair
// indices), for experiments that exercise heterogeneous links too.
func Table1Hetero() *Cluster {
	c := Table1()
	n := c.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			// Deterministic symmetric perturbation in [-0.15, +0.15].
			f := 1 + 0.15*float64((lo*7+hi*13)%31-15)/15
			c.Links[i][j].Beta *= f
			c.Links[i][j].L = time.Duration(float64(c.Links[i][j].L) * (2 - f))
		}
	}
	return c
}

// Prefix returns a cluster consisting of the first n nodes (deep
// copy). It panics if n is out of range.
func (c *Cluster) Prefix(n int) *Cluster {
	if n < 1 || n > c.N() {
		panic(fmt.Sprintf("cluster: prefix %d of %d nodes", n, c.N()))
	}
	nodes := append([]NodeSpec(nil), c.Nodes[:n]...)
	links := make([][]LinkSpec, n)
	for i := range links {
		links[i] = append([]LinkSpec(nil), c.Links[i][:n]...)
	}
	out := &Cluster{Nodes: nodes, Links: links}
	if c.Topo != nil {
		out.Topo = c.Topo.Prefix(n)
	}
	return out
}

// DefaultTopoNode is the node hardware FromTopology assumes when the
// caller passes a zero NodeSpec: the Table I majority type.
func DefaultTopoNode() NodeSpec {
	return NodeSpec{Model: "Dell Poweredge 750 (3.4 Xeon, 1MB L2)", OS: "FC4", C: 35 * time.Microsecond, T: 3.0e-9}
}

// DefaultTopoAccess is the access link FromTopology assumes when the
// caller passes a zero LinkSpec: the Table I gigabit segment.
func DefaultTopoAccess() LinkSpec {
	return LinkSpec{L: 45 * time.Microsecond, Beta: 9.0e7}
}

// FromTopology builds a cluster over a topology: homogeneous node
// hardware and access links (zero values select the Table I-class
// defaults), with the fabric's heterogeneity coming entirely from the
// topology's link classes. Per-node or per-pair ground truth can still
// be edited on the result before use.
func FromTopology(t *topo.Topology, node NodeSpec, access LinkSpec) *Cluster {
	if node == (NodeSpec{}) {
		node = DefaultTopoNode()
	}
	if access == (LinkSpec{}) {
		access = DefaultTopoAccess()
	}
	c := Homogeneous(t.Nodes(), node, access)
	c.Topo = t
	return c
}
