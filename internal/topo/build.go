package topo

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// DefaultUplink is a gigabit-class rack/spine trunk: slightly faster
// than the Table I access links, four lanes (a 2:1 oversubscribed
// 8-port rack).
func DefaultUplink() ClassSpec {
	return ClassSpec{Class: Uplink, L: 10 * time.Microsecond, Beta: 1.125e8, Lanes: 4}
}

// DefaultWAN is a wide-area link: two milliseconds one way, a third of
// the LAN rate, one lane.
func DefaultWAN() ClassSpec {
	return ClassSpec{Class: WAN, L: 2 * time.Millisecond, Beta: 3.0e7, Lanes: 1}
}

// SingleSwitch places n nodes on one switch — today's paper platform.
// It has no fabric: a network built over it replays the non-topology
// goldens byte-identically.
func SingleSwitch(n int) *Topology {
	t, err := New(fmt.Sprintf("single:%d", n), 1, make([]int, n), nil)
	if err != nil {
		panic(err) // unreachable for n >= 1; New rejects n == 0
	}
	return t
}

// TwoTier places racks×perRack nodes on rack switches joined by one
// spine: switch r < racks is rack r (nodes in contiguous blocks), the
// spine is switch racks. Every rack-spine edge carries the uplink
// spec.
func TwoTier(racks, perRack int, uplink ClassSpec) *Topology {
	if racks < 1 || perRack < 1 {
		panic(fmt.Sprintf("topo: two-tier %dx%d", racks, perRack))
	}
	nodeOf := make([]int, racks*perRack)
	for i := range nodeOf {
		nodeOf[i] = i / perRack
	}
	edges := make([]Edge, racks)
	for r := 0; r < racks; r++ {
		edges[r] = Edge{A: r, B: racks, Spec: uplink}
	}
	t, err := New(fmt.Sprintf("twotier:%dx%d", racks, perRack), racks+1, nodeOf, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// FatTree builds the standard k-ary fat-tree: k pods of k/2 edge and
// k/2 aggregation switches, (k/2)² cores, k/2 hosts per edge switch —
// k³/4 hosts total (k = 16 gives 1024). Every fabric link carries the
// given spec; k must be even and at least 2.
func FatTree(k int, fabric ClassSpec) *Topology {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree needs even k >= 2, got %d", k))
	}
	half := k / 2
	nEdge := k * half        // edge(p,i) = p*half + i
	nAgg := k * half         // agg(p,j) = nEdge + p*half + j
	coreBase := nEdge + nAgg // core(j,c) = coreBase + j*half + c
	switches := coreBase + half*half

	nodeOf := make([]int, k*half*half)
	for h := range nodeOf {
		p := h / (half * half)
		i := (h % (half * half)) / half
		nodeOf[h] = p*half + i
	}
	edges := make([]Edge, 0, 2*k*half*half) // edge-aggregation, then aggregation-core
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				edges = append(edges, Edge{A: p*half + i, B: nEdge + p*half + j, Spec: fabric})
			}
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				edges = append(edges, Edge{A: nEdge + p*half + j, B: coreBase + j*half + c, Spec: fabric})
			}
		}
	}
	t, err := New(fmt.Sprintf("fattree:%d", k), switches, nodeOf, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// MultiCluster places sites×perSite nodes on one switch per site, the
// sites fully meshed by wide-area links.
func MultiCluster(sites, perSite int, wan ClassSpec) *Topology {
	if sites < 1 || perSite < 1 {
		panic(fmt.Sprintf("topo: multi-cluster %dx%d", sites, perSite))
	}
	nodeOf := make([]int, sites*perSite)
	for i := range nodeOf {
		nodeOf[i] = i / perSite
	}
	var edges []Edge
	for a := 0; a < sites; a++ {
		for b := a + 1; b < sites; b++ {
			edges = append(edges, Edge{A: a, B: b, Spec: wan})
		}
	}
	t, err := New(fmt.Sprintf("multicluster:%dx%d", sites, perSite), sites, nodeOf, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// The limits ParseSpec enforces. A route table grows with the square
// of the switches that hold hosts, and a multi-cluster's WAN mesh with
// the square of its sites, so their count is capped as well as the
// hosts'. At the limits every kind builds in well under a second on a
// 2-vCPU VM: fattree:24 (3 456 hosts on 288 edge switches) in 20–40 ms,
// and multicluster:512x8, the slowest, in 0.3–0.4 s.
const (
	maxSpecHosts    = 4096
	maxSpecSwitches = 512 // switches that hold hosts
)

// ParseSpec parses the command-line topology syntax:
//
//	single:N           one switch, N nodes
//	twotier:RxP        R racks of P nodes behind one spine
//	fattree:K          k-ary fat-tree, K³/4 nodes on K²/2 edge switches
//	multicluster:SxP   S sites of P nodes, WAN full mesh
//
// A spec may place at most 4 096 hosts on at most 512 switches that
// hold hosts; a larger one is refused before anything is built. Fabric
// links use the package defaults (DefaultUplink, DefaultWAN).
func ParseSpec(s string) (*Topology, error) {
	kind, arg, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("topo: spec %q needs the form kind:params (e.g. twotier:4x8)", s)
	}
	// fit refuses perSwitch hosts on each of switches switches past a
	// limit, without forming a product that could overflow.
	fit := func(switches, perSwitch int) error {
		if switches > maxSpecSwitches || perSwitch > maxSpecHosts/switches {
			return fmt.Errorf("topo: spec %q is too large: at most %d hosts on %d switches that hold hosts", s, maxSpecHosts, maxSpecSwitches)
		}
		return nil
	}
	// dims parses AxB: A switches that hold B hosts each.
	dims := func() (int, int, error) {
		a, b, ok := strings.Cut(arg, "x")
		if !ok {
			return 0, 0, fmt.Errorf("topo: spec %q needs AxB dimensions", s)
		}
		x, err1 := strconv.Atoi(a)
		y, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil || x < 1 || y < 1 {
			return 0, 0, fmt.Errorf("topo: bad dimensions in spec %q", s)
		}
		return x, y, fit(x, y)
	}
	switch kind {
	case "single":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("topo: bad node count in spec %q", s)
		}
		if err := fit(1, n); err != nil {
			return nil, err
		}
		return SingleSwitch(n), nil
	case "twotier":
		r, p, err := dims()
		if err != nil {
			return nil, err
		}
		return TwoTier(r, p, DefaultUplink()), nil
	case "fattree":
		k, err := strconv.Atoi(arg)
		if err != nil || k < 2 || k%2 != 0 {
			return nil, fmt.Errorf("topo: fat-tree spec %q needs an even k >= 2", s)
		}
		// k pods of k/2 edge switches with k/2 hosts each. Clamping k
		// keeps k·k/2 from overflowing, and a clamped k is refused.
		m := min(k, maxSpecHosts)
		if err := fit(m*(m/2), m/2); err != nil {
			return nil, err
		}
		return FatTree(k, DefaultUplink()), nil
	case "multicluster":
		st, p, err := dims()
		if err != nil {
			return nil, err
		}
		return MultiCluster(st, p, DefaultWAN()), nil
	default:
		return nil, fmt.Errorf("topo: unknown topology kind %q (want single, twotier, fattree or multicluster)", kind)
	}
}
