package topo

import (
	"testing"
	"time"
)

func TestSingleSwitchShape(t *testing.T) {
	tp := SingleSwitch(16)
	if tp.Nodes() != 16 || tp.Switches != 1 || tp.HasFabric() {
		t.Fatalf("single switch: nodes=%d switches=%d fabric=%v", tp.Nodes(), tp.Switches, tp.HasFabric())
	}
	rt := tp.Route(3, 9)
	if len(rt.Hops) != 0 || rt.L != 0 || rt.InvBeta != 0 || rt.MaxClass != Intra {
		t.Fatalf("single switch route not empty: %+v", rt)
	}
	if g := tp.LeafGroups(); len(g) != 1 || len(g[0]) != 16 {
		t.Fatalf("leaf groups: %v", g)
	}
}

func TestTwoTierRoutes(t *testing.T) {
	up := ClassSpec{Class: Uplink, L: 10 * time.Microsecond, Beta: 1e8, Lanes: 2}
	tp := TwoTier(4, 4, up)
	if tp.Nodes() != 16 || tp.Switches != 5 || tp.NumEdges() != 4 {
		t.Fatalf("two-tier shape: nodes=%d switches=%d edges=%d", tp.Nodes(), tp.Switches, tp.NumEdges())
	}
	// Same rack: empty route.
	if rt := tp.Route(0, 3); len(rt.Hops) != 0 {
		t.Fatalf("intra-rack route has %d hops", len(rt.Hops))
	}
	// Cross rack: up to the spine and down, both hops uplink-class.
	rt := tp.Route(0, 5)
	if len(rt.Hops) != 2 {
		t.Fatalf("cross-rack route has %d hops, want 2", len(rt.Hops))
	}
	if rt.MaxClass != Uplink {
		t.Fatalf("cross-rack class %v", rt.MaxClass)
	}
	if want := 2 * up.L; rt.L != want {
		t.Fatalf("cross-rack L=%v want %v", rt.L, want)
	}
	if want := 2 / up.Beta; rt.InvBeta != want {
		t.Fatalf("cross-rack 1/β=%v want %v", rt.InvBeta, want)
	}
	if tp.NodeOf[0] != tp.NodeOf[1] || tp.NodeOf[0] == tp.NodeOf[4] {
		t.Fatal("NodeOf misplaced the racks")
	}
	if g := tp.LeafGroups(); len(g) != 4 || g[1][0] != 4 {
		t.Fatalf("leaf groups: %v", g)
	}
}

func TestFatTreeShape(t *testing.T) {
	fab := ClassSpec{Class: Uplink, L: 5 * time.Microsecond, Beta: 1.25e8}
	tp := FatTree(4, fab)
	if tp.Nodes() != 16 { // k³/4
		t.Fatalf("fat-tree(4) has %d hosts, want 16", tp.Nodes())
	}
	if tp.Switches != 20 { // k² + (k/2)²
		t.Fatalf("fat-tree(4) has %d switches, want 20", tp.Switches)
	}
	// Hosts 0 and 1 share an edge switch.
	if rt := tp.Route(0, 1); len(rt.Hops) != 0 {
		t.Fatalf("same-edge route has %d hops", len(rt.Hops))
	}
	// Hosts 0 and 2: same pod, different edge switch: edge-agg-edge.
	if rt := tp.Route(0, 2); len(rt.Hops) != 2 {
		t.Fatalf("same-pod route has %d hops, want 2", len(rt.Hops))
	}
	// Hosts 0 and 4: different pods: edge-agg-core-agg-edge.
	rt := tp.Route(0, 4)
	if len(rt.Hops) != 4 {
		t.Fatalf("cross-pod route has %d hops, want 4", len(rt.Hops))
	}
	if want := 4 * fab.L; rt.L != want {
		t.Fatalf("cross-pod L=%v want %v", rt.L, want)
	}
	if rt.MaxClass != Uplink {
		t.Fatalf("cross-pod tier %v", rt.MaxClass)
	}
	// Default lanes normalized to 1.
	if tp.Edges[0].Spec.Lanes != 1 {
		t.Fatalf("zero lanes not normalized: %d", tp.Edges[0].Spec.Lanes)
	}
}

func TestFatTreeSpreadsEqualCostPaths(t *testing.T) {
	tp := FatTree(8, DefaultUplink())
	// Cross-pod routes from pod 0 to pod 1 should not all collapse onto
	// one core switch: count the distinct first-core hops.
	cores := map[int32]bool{}
	for a := 0; a < 16; a++ { // pod 0 hosts
		for b := 16; b < 32; b++ { // pod 1 hosts
			rt := tp.Route(a, b)
			if len(rt.Hops) != 4 {
				t.Fatalf("route %d->%d has %d hops", a, b, len(rt.Hops))
			}
			cores[rt.Hops[1]] = true // the agg→core hop identifies the core
		}
	}
	if len(cores) < 4 {
		t.Fatalf("ECMP spreading uses only %d agg→core links between two pods", len(cores))
	}
}

func TestRouteInterning(t *testing.T) {
	tp := TwoTier(4, 8, DefaultUplink())
	// All nodes of rack 0 to all of rack 1 share one interned route.
	r1, r2 := tp.Route(0, 8), tp.Route(7, 15)
	if r1 != r2 {
		t.Fatal("same switch pair returned distinct route objects")
	}
	// 32 nodes, but the table holds only the empty route and the 4·3
	// directed rack pairs: it is sized by the switches with nodes, not
	// by the node pairs, and the spine, which hosts no node, has no
	// routes of its own. Distinct endpoints give distinct hop
	// sequences, so only the empty route repeats, once per rack on the
	// table's diagonal.
	if n := len(tp.routes) - tp.hosts + 1; n != 1+4*3 {
		t.Fatalf("table holds %d distinct routes, want 13", n)
	}
}

func TestRouteLookupDoesNotAllocate(t *testing.T) {
	tp := FatTree(8, DefaultUplink())
	n := tp.Nodes()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < n; i += 7 {
			for j := 0; j < n; j += 11 {
				_ = tp.Route(i, j)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("route lookups allocated %v times per run", allocs)
	}
}

// TestFatTreeBuildAllocs pins the allocations of building a 1 024-host
// fat-tree (k = 16: 320 switches, 128 with hosts). The route table,
// the hop array, the adjacency lists and the BFS state each take one
// array, so the count grows with neither the switches nor their pairs:
// a build that allocates per switch exceeds it by hundreds, one that
// allocates per route by thousands (per-pair hop slices and interning
// keys took 311 811).
func TestFatTreeBuildAllocs(t *testing.T) {
	const pin = 17
	allocs := testing.AllocsPerRun(10, func() { FatTree(16, DefaultUplink()) })
	if allocs > pin {
		t.Fatalf("FatTree(16) allocated %v objects, want at most %d", allocs, pin)
	}
}

func TestMultiClusterWAN(t *testing.T) {
	wan := DefaultWAN()
	tp := MultiCluster(3, 5, wan)
	if tp.Nodes() != 15 || tp.Switches != 3 || tp.NumEdges() != 3 {
		t.Fatalf("multi-cluster shape: %d nodes %d switches %d edges", tp.Nodes(), tp.Switches, tp.NumEdges())
	}
	rt := tp.Route(0, 14)
	if len(rt.Hops) != 1 || rt.MaxClass != WAN || rt.L != wan.L {
		t.Fatalf("WAN route: %+v", rt)
	}
	if rt.InvBeta != 1/wan.Beta {
		t.Fatalf("WAN route 1/β = %v, want %v", rt.InvBeta, 1/wan.Beta)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	up := DefaultUplink()
	cases := []struct {
		name     string
		switches int
		nodeOf   []int
		edges    []Edge
	}{
		{"no nodes", 2, nil, []Edge{{A: 0, B: 1, Spec: up}}},
		{"node off the map", 2, []int{0, 2}, []Edge{{A: 0, B: 1, Spec: up}}},
		{"self loop", 2, []int{0, 1}, []Edge{{A: 1, B: 1, Spec: up}}},
		{"zero rate", 2, []int{0, 1}, []Edge{{A: 0, B: 1, Spec: ClassSpec{Class: Uplink, Beta: 0}}}},
		{"disconnected", 3, []int{0, 1, 2}, []Edge{{A: 0, B: 1, Spec: up}}},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.switches, c.nodeOf, c.edges); err == nil {
			t.Errorf("%s: New accepted bad input", c.name)
		}
	}
}

func TestValidateRequiresBuiltRoutes(t *testing.T) {
	tp := &Topology{Name: "handmade", Switches: 1, NodeOf: []int{0}}
	if err := tp.Validate(); err == nil {
		t.Fatal("Validate accepted a topology without route tables")
	}
	// The table has rows only for the switches that hosted nodes when it
	// was built: a node moved onto the spine afterwards has no route.
	moved := TwoTier(2, 2, DefaultUplink())
	moved.NodeOf = []int{0, 0, 1, 2}
	if err := moved.Validate(); err == nil {
		t.Fatal("Validate accepted a node on a switch the route table has no row for")
	}
}

func TestPrefixSharesRoutes(t *testing.T) {
	tp := TwoTier(2, 4, DefaultUplink())
	p := tp.Prefix(5)
	if p.Nodes() != 5 || p.Switches != 3 {
		t.Fatalf("prefix: %d nodes %d switches", p.Nodes(), p.Switches)
	}
	if p.Route(0, 4) != tp.Route(0, 4) {
		t.Fatal("prefix rebuilt the route tables")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range prefix did not panic")
		}
	}()
	tp.Prefix(9)
}

func TestClassRoundTrip(t *testing.T) {
	for _, c := range []Class{Intra, Uplink, WAN} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("class %v round-trip: %v %v", c, got, err)
		}
	}
	if _, err := ParseClass("warp"); err == nil {
		t.Error("ParseClass accepted nonsense")
	}
}
