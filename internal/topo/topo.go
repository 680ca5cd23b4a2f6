// Package topo describes hierarchical multi-switch cluster topologies:
// a graph of switches joined by typed links (intra-switch, rack uplink,
// wide-area), each a latency/rate class with a lane count expressing
// oversubscription. The paper's platform is a single 16-port switch;
// this package generalizes it to the shapes real users run — racks
// behind spine uplinks, fat-trees, multi-cluster WANs — following the
// logical-cluster decomposition of Estefanel & Mounié.
//
// A Topology complements a cluster.Cluster: the cluster's per-pair
// LinkSpec describes the access segment (NIC and first switch port),
// while the topology adds the store-and-forward fabric between the
// endpoints' switches. Routes are deterministic shortest paths,
// computed once at construction between every pair of switches that
// host nodes (spines and cores are only passed through), into one
// table whose hops share one array, so the simulator's hot path looks
// a route up with a few array indexings and no allocation.
package topo

import (
	"fmt"
	"slices"
	"time"
)

// Class is the tier of a fabric link.
type Class uint8

// The link tiers, ordered by distance from the endpoints.
const (
	// Intra is the intra-switch tier: node pairs on one switch cross
	// no fabric link at all, so no edge normally carries this class;
	// it appears as the class of an empty route.
	Intra Class = iota
	// Uplink is the rack-to-spine (or edge-aggregation-core) tier.
	Uplink
	// WAN is the wide-area tier joining distinct clusters.
	WAN
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Intra:
		return "intra"
	case Uplink:
		return "uplink"
	case WAN:
		return "wan"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass parses a class name written by String.
func ParseClass(s string) (Class, error) {
	switch s {
	case "intra":
		return Intra, nil
	case "uplink":
		return Uplink, nil
	case "wan":
		return WAN, nil
	default:
		return 0, fmt.Errorf("topo: unknown link class %q", s)
	}
}

// ClassSpec is the ground truth of one fabric-link tier: the fixed
// per-traversal latency, the per-lane transmission rate, and the
// number of parallel lanes. Lanes express oversubscription: an uplink
// serving p downstream ports with p/f lanes is oversubscribed by
// factor f — concurrent transfers beyond the lane count queue.
type ClassSpec struct {
	Class Class
	L     time.Duration // fixed latency per traversal
	Beta  float64       // transmission rate per lane, bytes/second
	Lanes int           // parallel transmission slots (0 means 1)
}

// Edge is one undirected fabric link between two switches. The
// simulator books its two directions independently (full duplex).
type Edge struct {
	A, B int // switch endpoints
	Spec ClassSpec
}

// Route is the path between two switches: the directed edge ids to
// traverse in order, plus the precomputed uncontended totals a
// predictor or ground-truth query needs. A directed edge id is
// 2·edgeIndex+0 for the A→B direction and 2·edgeIndex+1 for B→A.
type Route struct {
	Hops     []int32       // directed edge ids, in traversal order
	L        time.Duration // Σ per-hop latencies
	InvBeta  float64       // Σ 1/β per hop (store-and-forward serialization), s/B
	MaxClass Class         // highest tier crossed (Intra for an empty route)
}

// Topology is an immutable switch graph with node placement and a
// route table. Build one with New or the shape constructors; do not
// mutate the fields after construction.
type Topology struct {
	Name     string
	Switches int
	NodeOf   []int // node index -> switch index
	Edges    []Edge

	hostRow []int32 // switch -> its row and column of routes; -1 for a switch with no node
	hosts   int     // switches with nodes: routes is hosts×hosts
	routes  []Route // row-major by (source, destination) host switch; their Hops share one array
}

// New builds a topology and computes its route tables. NodeOf maps
// each node to its switch; edges is the fabric (empty for a single
// switch). Every switch pair must be connected.
func New(name string, switches int, nodeOf []int, edges []Edge) (*Topology, error) {
	t := &Topology{Name: name, Switches: switches, NodeOf: nodeOf, Edges: edges}
	for i := range t.Edges {
		if t.Edges[i].Spec.Lanes == 0 {
			t.Edges[i].Spec.Lanes = 1
		}
	}
	if err := t.validateStructure(); err != nil {
		return nil, err
	}
	if err := t.buildRoutes(); err != nil {
		return nil, err
	}
	return t, nil
}

// validateStructure checks everything except connectivity (which
// buildRoutes establishes).
func (t *Topology) validateStructure() error {
	if t.Switches < 1 {
		return fmt.Errorf("topo: %d switches", t.Switches)
	}
	if len(t.NodeOf) == 0 {
		return fmt.Errorf("topo: no nodes placed")
	}
	for i, s := range t.NodeOf {
		if s < 0 || s >= t.Switches {
			return fmt.Errorf("topo: node %d on switch %d of %d", i, s, t.Switches)
		}
	}
	for i, e := range t.Edges {
		if e.A < 0 || e.A >= t.Switches || e.B < 0 || e.B >= t.Switches {
			return fmt.Errorf("topo: edge %d joins switches %d-%d of %d", i, e.A, e.B, t.Switches)
		}
		if e.A == e.B {
			return fmt.Errorf("topo: edge %d is a self-loop on switch %d", i, e.A)
		}
		if e.Spec.Beta <= 0 {
			return fmt.Errorf("topo: edge %d has non-positive rate", i)
		}
		if e.Spec.L < 0 {
			return fmt.Errorf("topo: edge %d has negative latency", i)
		}
		if e.Spec.Lanes < 1 {
			return fmt.Errorf("topo: edge %d has %d lanes", i, e.Spec.Lanes)
		}
	}
	return nil
}

// Validate re-checks the invariants New established (for descriptions
// deserialized or assembled by hand and passed through cluster files).
func (t *Topology) Validate() error {
	if err := t.validateStructure(); err != nil {
		return err
	}
	if len(t.hostRow) != t.Switches {
		return fmt.Errorf("topo: route table not built (construct topologies with topo.New)")
	}
	for i, s := range t.NodeOf {
		if t.hostRow[s] < 0 {
			return fmt.Errorf("topo: node %d on switch %d, which the route table has no row for", i, s)
		}
	}
	return nil
}

// halfEdge is one direction of an edge in the adjacency list.
type halfEdge struct {
	to int
	de int32 // directed edge id
}

// buildRoutes computes deterministic shortest paths from every switch
// that hosts nodes to every other one, with one BFS per source, which
// also rejects a disconnected graph. Among equal-cost parents the
// reconstruction spreads deterministically by a hash of (src, dst,
// depth) — the ECMP-like load spreading that keeps a fat-tree's core
// from collapsing onto one switch — so the chosen path is a pure
// function of the topology and the pair. Route takes nodes, so routes
// that start or end at a switch without nodes are never built.
func (t *Topology) buildRoutes() error {
	s := t.Switches
	deg := make([]int, s)
	for _, e := range t.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	adj := carve(deg)
	for ei, e := range t.Edges {
		adj[e.A] = append(adj[e.A], halfEdge{e.B, int32(2 * ei)})
		adj[e.B] = append(adj[e.B], halfEdge{e.A, int32(2*ei + 1)})
	}
	// Adjacency lists are appended in edge order, which is already
	// deterministic; BFS visits them in that order.

	hasNode := make([]bool, s)
	for _, sw := range t.NodeOf {
		hasNode[sw] = true
	}
	t.hostRow = make([]int32, s)
	hostSw := make([]int, 0, s) // the switches with nodes, in index order
	for sw, ok := range hasNode {
		t.hostRow[sw] = -1
		if ok {
			t.hostRow[sw] = int32(len(hostSw))
			hostSw = append(hostSw, sw)
		}
	}
	t.hosts = len(hostSw)
	t.routes = make([]Route, t.hosts*t.hosts)

	// Every route's hops go into one array, back to back in table
	// order. Appending may move the array, so each route is pointed at
	// its window only once all are written.
	var hops []int32
	dist := make([]int, s)
	parents := carve(deg) // per switch: equal-cost incoming half-edges
	queue := make([]int, 0, s)
	for r, src := range hostSw {
		for i := range dist {
			dist[i] = -1
			parents[i] = parents[i][:0]
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for next := 0; next < len(queue); next++ { // each switch is queued once: no growth past s
			v := queue[next]
			for _, h := range adj[v] {
				switch {
				case dist[h.to] == -1:
					dist[h.to] = dist[v] + 1
					parents[h.to] = append(parents[h.to], h)
					queue = append(queue, h.to)
				case dist[h.to] == dist[v]+1:
					parents[h.to] = append(parents[h.to], h)
				}
			}
		}
		for v, d := range dist {
			if d == -1 {
				return fmt.Errorf("topo: switches %d and %d are not connected", src, v)
			}
		}
		if hops == nil { // size the array by the first source's routes: exact when every source sees the same distances
			need := 0
			for _, dst := range hostSw {
				need += dist[dst]
			}
			hops = make([]int32, 0, t.hosts*need)
		}
		for c, dst := range hostSw {
			start := len(hops)
			hops = slices.Grow(hops, dist[dst])[:start+dist[dst]]
			for v, d := src, dst; d != v; {
				ps := parents[d]
				h := ps[mix(src, dst, dist[d])%uint32(len(ps))]
				hops[start+dist[d]-1] = h.de
				d = t.otherEnd(h.de)
			}
			t.routes[r*t.hosts+c] = t.makeRoute(hops[start:])
		}
	}
	at := 0
	for i := range t.routes {
		n := len(t.routes[i].Hops)
		t.routes[i].Hops = hops[at : at+n : at+n]
		at += n
	}
	return nil
}

// carve returns one empty list per switch, with room for deg[v]
// half-edges, all cut from one array: a switch's adjacency list and its
// BFS parents never outgrow its degree.
func carve(deg []int) [][]halfEdge {
	lists := make([][]halfEdge, len(deg))
	total := 0
	for _, d := range deg {
		total += d
	}
	all := make([]halfEdge, total)
	at := 0
	for v, d := range deg {
		lists[v] = all[at : at : at+d]
		at += d
	}
	return lists
}

// otherEnd returns the switch a directed edge id leads *from* (its
// tail), i.e. the BFS predecessor when the edge points at the current
// switch.
func (t *Topology) otherEnd(de int32) int {
	e := t.Edges[de>>1]
	if de&1 == 0 {
		return e.A
	}
	return e.B
}

// mix is a small deterministic hash for equal-cost path spreading.
func mix(src, dst, depth int) uint32 {
	h := uint32(src)*0x9e3779b1 ^ uint32(dst)*0x85ebca77 ^ uint32(depth)*0xc2b2ae3d
	h ^= h >> 15
	return h
}

// makeRoute precomputes a route's uncontended totals.
func (t *Topology) makeRoute(hops []int32) Route {
	r := Route{Hops: hops}
	for _, de := range hops {
		spec := t.Edges[de>>1].Spec
		r.L += spec.L
		r.InvBeta += 1 / spec.Beta
		if spec.Class > r.MaxClass {
			r.MaxClass = spec.Class
		}
	}
	return r
}

// Nodes returns the number of placed nodes.
func (t *Topology) Nodes() int { return len(t.NodeOf) }

// NumEdges returns the number of undirected fabric edges.
func (t *Topology) NumEdges() int { return len(t.Edges) }

// HasFabric reports whether any node pair crosses a fabric link; a
// single-switch topology has none and the simulator skips the fabric
// phase entirely.
func (t *Topology) HasFabric() bool { return len(t.Edges) > 0 }

// Route returns the route between two nodes' switches. The returned
// route is shared and must not be mutated.
//
//lmovet:hotpath
func (t *Topology) Route(src, dst int) *Route {
	return &t.routes[int(t.hostRow[t.NodeOf[src]])*t.hosts+int(t.hostRow[t.NodeOf[dst]])]
}

// EdgeSpec returns the link class of a directed edge id from a route's
// hop list. The returned spec is shared and must not be mutated.
//
//lmovet:hotpath
func (t *Topology) EdgeSpec(de int32) *ClassSpec {
	return &t.Edges[de>>1].Spec
}

// LeafGroups partitions the nodes by switch, in switch index order,
// omitting empty switches (spines and cores host no nodes). Members
// are in node index order. This is the topology's candidate logical
// grouping: nodes on one leaf switch see identical fabric.
func (t *Topology) LeafGroups() [][]int {
	per := make([][]int, t.Switches)
	for i, s := range t.NodeOf {
		per[s] = append(per[s], i)
	}
	out := make([][]int, 0, t.Switches)
	for _, g := range per {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// Prefix returns a topology over the first n nodes only, sharing the
// switch graph and route tables with the receiver. It panics if n is
// out of range.
func (t *Topology) Prefix(n int) *Topology {
	if n < 1 || n > len(t.NodeOf) {
		panic(fmt.Sprintf("topo: prefix %d of %d nodes", n, len(t.NodeOf)))
	}
	cp := *t
	cp.NodeOf = t.NodeOf[:n]
	return &cp
}
