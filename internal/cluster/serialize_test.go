package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

func TestClusterTopologyRoundTrip(t *testing.T) {
	c := FromTopology(topo.TwoTier(2, 3, topo.DefaultUplink()), NodeSpec{}, LinkSpec{})
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Topo == nil {
		t.Fatal("topology lost in round-trip")
	}
	if back.Topo.Switches != c.Topo.Switches || back.Topo.Nodes() != c.Topo.Nodes() {
		t.Fatalf("topology shape changed: %d/%d switches, %d/%d nodes",
			back.Topo.Switches, c.Topo.Switches, back.Topo.Nodes(), c.Topo.Nodes())
	}
	if len(back.Topo.Edges) != len(c.Topo.Edges) {
		t.Fatalf("edges: %d, want %d", len(back.Topo.Edges), len(c.Topo.Edges))
	}
	for i, e := range back.Topo.Edges {
		if e != c.Topo.Edges[i] {
			t.Fatalf("edge %d changed: %+v vs %+v", i, e, c.Topo.Edges[i])
		}
	}
	// Route tables are rebuilt deterministically, so derived quantities
	// survive the round-trip too.
	if back.Topo.Route(0, 3).L != c.Topo.Route(0, 3).L {
		t.Fatal("rebuilt routes disagree with the originals")
	}
}

func TestFromJSONWritesCurrentVersion(t *testing.T) {
	data, err := Table1().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Fatalf("marshalled cluster does not carry the envelope version:\n%.200s", data)
	}
}

func TestFromJSONLegacyFileLoadsAsSingleSwitch(t *testing.T) {
	// A pre-versioning file: no version field, no topology.
	legacy := `{
	  "nodes": [{"c_ns": 30000, "t_sec_per_b": 3e-9}, {"c_ns": 30000, "t_sec_per_b": 3e-9}],
	  "uniform_link": {"l_ns": 45000, "beta_b_per_s": 9e7}
	}`
	c, err := FromJSON([]byte(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if c.Topo != nil {
		t.Fatal("legacy file grew a topology")
	}
	if c.N() != 2 || c.Links[0][1].L != 45*time.Microsecond {
		t.Fatalf("legacy file misread: %+v", c)
	}
}

func TestFromJSONRejectsNewerVersion(t *testing.T) {
	// A version-3 file with a field this build has never heard of: the
	// reader must blame the version, not the field.
	future := `{
	  "version": 3,
	  "nodes": [{"c_ns": 30000, "t_sec_per_b": 3e-9}],
	  "uniform_link": {"l_ns": 45000, "beta_b_per_s": 9e7},
	  "quantum_links": [{"entanglement": 0.99}]
	}`
	_, err := FromJSON([]byte(future))
	if err == nil {
		t.Fatal("newer-version file accepted")
	}
	if !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "newer version") {
		t.Fatalf("newer-version error unclear: %v", err)
	}
	// Same refusal when the newer file happens to use only known fields.
	plain := `{
	  "version": 3,
	  "nodes": [{"c_ns": 30000, "t_sec_per_b": 3e-9}],
	  "uniform_link": {"l_ns": 45000, "beta_b_per_s": 9e7}
	}`
	if _, err := FromJSON([]byte(plain)); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("plain newer-version file not refused clearly: %v", err)
	}
}

func TestFromJSONRejectsUnknownFieldsAtKnownVersion(t *testing.T) {
	bad := `{
	  "version": 2,
	  "nodes": [{"c_ns": 30000, "t_sec_per_b": 3e-9}],
	  "uniform_link": {"l_ns": 45000, "beta_b_per_s": 9e7},
	  "typo_field": true
	}`
	_, err := FromJSON([]byte(bad))
	if err == nil {
		t.Fatal("unknown field accepted at a known version")
	}
	if !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("strict-decode error does not name the field: %v", err)
	}
}

func TestFromJSONTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"bad class", `{"version": 2,
		  "nodes": [{"c_ns": 1}, {"c_ns": 1}],
		  "uniform_link": {"l_ns": 1, "beta_b_per_s": 1},
		  "topology": {"switches": 2, "node_switch": [0, 1],
		    "edges": [{"a": 0, "b": 1, "class": "warp", "l_ns": 1, "beta_b_per_s": 1}]}}`},
		{"node count mismatch", `{"version": 2,
		  "nodes": [{"c_ns": 1}, {"c_ns": 1}],
		  "uniform_link": {"l_ns": 1, "beta_b_per_s": 1},
		  "topology": {"switches": 1, "node_switch": [0, 0, 0]}}`},
		{"disconnected", `{"version": 2,
		  "nodes": [{"c_ns": 1}, {"c_ns": 1}],
		  "uniform_link": {"l_ns": 1, "beta_b_per_s": 1},
		  "topology": {"switches": 2, "node_switch": [0, 1]}}`},
	}
	for _, c := range cases {
		if _, err := FromJSON([]byte(c.body)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPrefixCarriesTopology(t *testing.T) {
	c := FromTopology(topo.TwoTier(2, 4, topo.DefaultUplink()), NodeSpec{}, LinkSpec{})
	p := c.Prefix(5)
	if p.Topo == nil || p.Topo.Nodes() != 5 {
		t.Fatalf("prefix topology: %+v", p.Topo)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesTopologyMismatch(t *testing.T) {
	c := Homogeneous(4, DefaultTopoNode(), DefaultTopoAccess())
	c.Topo = topo.SingleSwitch(5)
	if err := c.Validate(); err == nil {
		t.Fatal("node-count mismatch between cluster and topology accepted")
	}
}
