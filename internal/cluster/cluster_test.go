package cluster

import (
	"testing"
	"time"
)

func TestTable1Shape(t *testing.T) {
	c := Table1()
	if c.N() != 16 {
		t.Fatalf("n = %d, want 16", c.N())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Seven distinct hardware models per Table I.
	models := map[string]int{}
	for _, nd := range c.Nodes {
		models[nd.Model]++
	}
	if len(models) != 7 {
		t.Fatalf("node types = %d, want 7", len(models))
	}
	// Counts per type: 2,6,2,1,1,1,3.
	wantCounts := map[int]int{2: 2, 6: 1, 1: 3, 3: 1}
	got := map[int]int{}
	for _, cnt := range models {
		got[cnt]++
	}
	for k, v := range wantCounts {
		if got[k] != v {
			t.Fatalf("type-count histogram = %v, want %v", got, wantCounts)
		}
	}
}

func TestTable1Heterogeneity(t *testing.T) {
	c := Table1()
	minC, maxC := c.Nodes[0].C, c.Nodes[0].C
	for _, nd := range c.Nodes {
		if nd.C < minC {
			minC = nd.C
		}
		if nd.C > maxC {
			maxC = nd.C
		}
	}
	if maxC <= minC {
		t.Fatal("Table1 should have heterogeneous processor delays")
	}
	// The Celeron (256KB L2) should be the slowest per-byte processor.
	var celeron NodeSpec
	for _, nd := range c.Nodes {
		if nd.T > celeron.T {
			celeron = nd
		}
	}
	if celeron.Model == "" || celeron.C != 95*time.Microsecond {
		t.Fatalf("slowest node = %+v, want the Celeron", celeron)
	}
}

func TestTable1LinksSymmetric(t *testing.T) {
	for name, c := range map[string]*Cluster{"uniform": Table1(), "hetero": Table1Hetero()} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.N(); j++ {
				if i == j {
					continue
				}
				if c.Links[i][j].Beta != c.Links[j][i].Beta {
					t.Fatalf("%s: β not symmetric at (%d,%d)", name, i, j)
				}
			}
		}
	}
}

func TestTable1HeteroVariesLinks(t *testing.T) {
	c := Table1Hetero()
	base := c.Links[0][1].Beta
	varied := false
	for i := 0; i < c.N() && !varied; i++ {
		for j := 0; j < c.N(); j++ {
			if i != j && c.Links[i][j].Beta != base {
				varied = true
				break
			}
		}
	}
	if !varied {
		t.Fatal("Table1Hetero should vary link rates")
	}
}

func TestHomogeneous(t *testing.T) {
	node := NodeSpec{C: 50 * time.Microsecond, T: 3e-9}
	link := LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}
	c := Homogeneous(8, node, link)
	if c.N() != 8 {
		t.Fatalf("n = %d", c.N())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, nd := range c.Nodes {
		if nd.C != node.C || nd.T != node.T {
			t.Fatalf("node %d differs: %+v", i, nd)
		}
		if nd.Name == "" {
			t.Fatalf("node %d unnamed", i)
		}
	}
}

func TestValidateCatchesBadClusters(t *testing.T) {
	if err := (&Cluster{}).Validate(); err == nil {
		t.Fatal("empty cluster should fail")
	}
	c := Homogeneous(3, NodeSpec{C: time.Microsecond, T: 1e-9}, LinkSpec{L: time.Microsecond, Beta: 1e8})
	c.Links[0][1].Beta = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero-rate link should fail")
	}
	c = Homogeneous(3, NodeSpec{C: time.Microsecond, T: 1e-9}, LinkSpec{L: time.Microsecond, Beta: 1e8})
	c.Links = c.Links[:2]
	if err := c.Validate(); err == nil {
		t.Fatal("non-square links should fail")
	}
	c = Homogeneous(3, NodeSpec{C: -time.Microsecond, T: 1e-9}, LinkSpec{L: time.Microsecond, Beta: 1e8})
	if err := c.Validate(); err == nil {
		t.Fatal("negative node delay should fail")
	}
}

func TestProfileThresholdsMatchPaper(t *testing.T) {
	lam, mpich := LAM(), MPICH()
	if lam.M1 != 4<<10 || lam.M2 != 65<<10 {
		t.Fatalf("LAM M1/M2 = %d/%d, want 4KB/65KB", lam.M1, lam.M2)
	}
	if mpich.M1 != 3<<10 || mpich.M2 != 125<<10 {
		t.Fatalf("MPICH M1/M2 = %d/%d, want 3KB/125KB", mpich.M1, mpich.M2)
	}
	if lam.LeapAt != 64<<10 {
		t.Fatalf("LAM leap at %d, want 64KB", lam.LeapAt)
	}
}

func TestParseProfile(t *testing.T) {
	for name, want := range map[string]string{"lam": LAM().Name, "mpich": MPICH().Name, "ideal": Ideal().Name} {
		p, err := ParseProfile(name)
		if err != nil || p.Name != want {
			t.Fatalf("ParseProfile(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if p, err := ParseProfile("openmpi"); err == nil || p != nil {
		t.Fatalf("ParseProfile(openmpi) = %v, %v; want an error", p, err)
	}
}

func TestLeapExtra(t *testing.T) {
	p := LAM()
	if p.LeapExtra(p.LeapAt-1) != 0 {
		t.Fatal("no leap below threshold")
	}
	one := p.LeapExtra(p.LeapAt)
	if one != p.Leap {
		t.Fatalf("first leap = %v, want %v", one, p.Leap)
	}
	two := p.LeapExtra(2 * p.LeapAt)
	if two <= one {
		t.Fatal("second boundary should add more")
	}
	// Converges: total extra is bounded by Leap/(1-decay).
	limit := time.Duration(float64(p.Leap) / (1 - p.LeapDecay))
	big := p.LeapExtra(100 * p.LeapAt)
	if big > limit {
		t.Fatalf("leap extra %v exceeds limit %v", big, limit)
	}
	if big < time.Duration(float64(limit)*0.99) {
		t.Fatalf("leap extra %v should approach limit %v", big, limit)
	}
	if Ideal().LeapExtra(1<<30) != 0 {
		t.Fatal("ideal profile must not leap")
	}
}

func TestEscalationProb(t *testing.T) {
	p := LAM()
	if p.EscalationProb(p.M1) != 0 || p.EscalationProb(p.M2) != 0 {
		t.Fatal("prob must be 0 at and outside the boundaries")
	}
	mid := (p.M1 + p.M2) / 2
	pm := p.EscalationProb(mid)
	if pm <= p.EscProbMin || pm >= p.EscProbMax {
		t.Fatalf("mid prob = %v, want in (%v, %v)", pm, p.EscProbMin, p.EscProbMax)
	}
	// Monotone non-decreasing across the region.
	prev := 0.0
	for m := p.M1 + 1; m < p.M2; m += 1024 {
		v := p.EscalationProb(m)
		if v < prev {
			t.Fatalf("prob not monotone at %d", m)
		}
		prev = v
	}
	if Ideal().EscalationProb(10<<10) != 0 {
		t.Fatal("ideal profile must not escalate")
	}
}

func TestSerializesIngress(t *testing.T) {
	p := LAM()
	if p.SerializesIngress(p.M2) {
		t.Fatal("M2 itself should not serialize")
	}
	if !p.SerializesIngress(p.M2 + 1) {
		t.Fatal("above M2 should serialize")
	}
	if Ideal().SerializesIngress(1 << 30) {
		t.Fatal("ideal profile should never serialize")
	}
}

func TestPickEscalation(t *testing.T) {
	p := LAM()
	// u small → first (heavier) mode; u large → second mode.
	if d := p.PickEscalation(0.0); d != p.EscDelays[0] {
		t.Fatalf("u=0 picked %v", d)
	}
	if d := p.PickEscalation(0.99); d != p.EscDelays[1] {
		t.Fatalf("u=0.99 picked %v", d)
	}
	if Ideal().PickEscalation(0.5) != 0 {
		t.Fatal("ideal profile has no escalations")
	}
	// Mismatched weights fall back to the first mode.
	q := &TCPProfile{EscDelays: []time.Duration{time.Second}, EscWeights: nil}
	if q.PickEscalation(0.5) != time.Second {
		t.Fatal("weightless profile should use first mode")
	}
}

func TestPrefix(t *testing.T) {
	c := Table1()
	p := c.Prefix(5)
	if p.N() != 5 {
		t.Fatalf("n = %d", p.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deep copy: mutating the prefix must not touch the original.
	p.Nodes[0].C = 0
	p.Links[0][1].Beta = 1
	if c.Nodes[0].C == 0 || c.Links[0][1].Beta == 1 {
		t.Fatal("prefix aliases the original cluster")
	}
	for _, bad := range []int{0, 17, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prefix(%d) should panic", bad)
				}
			}()
			c.Prefix(bad)
		}()
	}
}

func TestClusterJSONRoundTrip(t *testing.T) {
	c := Table1Hetero()
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != c.N() {
		t.Fatalf("n = %d", back.N())
	}
	for i := range c.Nodes {
		if back.Nodes[i] != c.Nodes[i] {
			t.Fatalf("node %d changed: %+v vs %+v", i, back.Nodes[i], c.Nodes[i])
		}
	}
	for i := range c.Links {
		for j := range c.Links[i] {
			if back.Links[i][j] != c.Links[i][j] {
				t.Fatalf("link (%d,%d) changed", i, j)
			}
		}
	}
}

func TestClusterFromJSONUniformLink(t *testing.T) {
	data := []byte(`{
		"nodes": [
			{"c_ns": 50000, "t_sec_per_b": 4e-9},
			{"name": "big", "c_ns": 90000, "t_sec_per_b": 8e-9},
			{"c_ns": 50000, "t_sec_per_b": 4e-9}
		],
		"uniform_link": {"l_ns": 40000, "beta_b_per_s": 1e8}
	}`)
	c, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.Nodes[1].Name != "big" || c.Nodes[0].Name != "node00" {
		t.Fatalf("nodes = %+v", c.Nodes)
	}
	if c.Links[0][2].Beta != 1e8 || c.Links[0][2].L != 40*time.Microsecond {
		t.Fatalf("links = %+v", c.Links[0][2])
	}
}

func TestClusterFromJSONErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"nodes": []}`,
		`{"nodes": [{"c_ns": 1, "t_sec_per_b": 1e-9}]}`,                                               // no links
		`{"nodes": [{"c_ns": 1, "t_sec_per_b": 1e-9}], "links": [[{"l_ns":1,"beta_b_per_s":1}],[]]}`,  // ragged
		`{"nodes": [{"c_ns": -5, "t_sec_per_b": 1e-9}], "uniform_link": {"l_ns":1,"beta_b_per_s":1}}`, // invalid
	}
	for i, c := range cases {
		if _, err := FromJSON([]byte(c)); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}
