package tuned

import (
	"strings"
	"testing"

	"repro/internal/models"
)

func sampleTable() *Table {
	return &Table{
		Meta: &models.Meta{Cluster: "table1", Nodes: 16, Profile: "lam", Seed: 1, Est: "tuner"},
		Root: 0,
		Rules: []Rule{
			{Op: OpScatter, MinBytes: 0, MaxBytes: 8 << 10, Alg: "binomial"},
			{Op: OpScatter, MinBytes: 8 << 10, MaxBytes: 0, Alg: "linear"},
			{Op: OpGather, MinBytes: 0, MaxBytes: 8 << 10, Alg: "binomial", Degree: 4},
			{Op: OpGather, MinBytes: 8 << 10, MaxBytes: 0, Alg: "linear", Segment: 4 << 10, PredictedS: 0.01, SimulatedS: 0.012},
		},
	}
}

func TestTableRoundTrip(t *testing.T) {
	tbl := sampleTable()
	data, err := tbl.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != TableVersion {
		t.Fatalf("version = %d, want %d", got.Version, TableVersion)
	}
	if got.Meta == nil || got.Meta.Cluster != "table1" || got.Meta.Nodes != 16 {
		t.Fatalf("meta not preserved: %+v", got.Meta)
	}
	if len(got.Rules) != len(tbl.Rules) {
		t.Fatalf("rules = %d, want %d", len(got.Rules), len(tbl.Rules))
	}
	for i, r := range got.Rules {
		if r != tbl.Rules[i] {
			t.Fatalf("rule %d round-tripped to %+v, want %+v", i, r, tbl.Rules[i])
		}
	}
}

func TestTableVersionMismatch(t *testing.T) {
	if _, err := UnmarshalTable([]byte(`{"root":0,"rules":[]}`)); err == nil || !strings.Contains(err.Error(), "no version field") {
		t.Fatalf("missing version: err = %v", err)
	}
	if _, err := UnmarshalTable([]byte(`{"version":99,"root":0,"rules":[]}`)); err == nil || !strings.Contains(err.Error(), "version 99 is not supported") {
		t.Fatalf("future version: err = %v", err)
	}
	if _, err := UnmarshalTable([]byte(`{not json`)); err == nil || !strings.Contains(err.Error(), "parsing decision table") {
		t.Fatalf("malformed JSON: err = %v", err)
	}
}

func TestTableValidateRejectsBadRules(t *testing.T) {
	cases := []struct {
		name string
		tbl  Table
		want string
	}{
		{"unknown op", Table{Rules: []Rule{{Op: "bcast", Alg: "linear"}}}, "unknown op"},
		{"unknown alg", Table{Rules: []Rule{{Op: OpGather, Alg: "quantum"}}}, "unknown algorithm"},
		{"degree one", Table{Rules: []Rule{{Op: OpGather, Alg: "linear", Degree: 1}}}, "tree degree"},
		{"negative segment", Table{Rules: []Rule{{Op: OpGather, Alg: "linear", Segment: -1}}}, "negative segment"},
		{"empty range", Table{Rules: []Rule{{Op: OpGather, Alg: "linear", MinBytes: 10, MaxBytes: 10}}}, "empty range"},
		{"overlap", Table{Rules: []Rule{
			{Op: OpGather, Alg: "linear", MinBytes: 0, MaxBytes: 100},
			{Op: OpGather, Alg: "binomial", MinBytes: 50, MaxBytes: 200},
		}}, "overlaps"},
		{"after unbounded", Table{Rules: []Rule{
			{Op: OpGather, Alg: "linear", MinBytes: 0, MaxBytes: 0},
			{Op: OpGather, Alg: "binomial", MinBytes: 100, MaxBytes: 200},
		}}, "follows an unbounded rule"},
	}
	for _, c := range cases {
		err := c.tbl.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestTableLookup(t *testing.T) {
	tbl := sampleTable()
	cases := []struct {
		op      Op
		m       int
		wantAlg string
		wantOK  bool
	}{
		{OpScatter, 0, "binomial", true},
		{OpScatter, 8<<10 - 1, "binomial", true},
		{OpScatter, 8 << 10, "linear", true},
		{OpScatter, 1 << 30, "linear", true},
		{OpGather, 4 << 10, "binomial", true},
		{OpGather, 64 << 10, "linear", true},
		{"bcast", 4 << 10, "", false},
	}
	for _, c := range cases {
		r, ok := tbl.Lookup(c.op, c.m)
		if ok != c.wantOK || (ok && r.Alg != c.wantAlg) {
			t.Fatalf("Lookup(%s, %d) = (%+v, %v), want alg %q ok %v", c.op, c.m, r, ok, c.wantAlg, c.wantOK)
		}
	}
	// A gap between rules misses.
	gap := &Table{Rules: []Rule{
		{Op: OpGather, Alg: "linear", MinBytes: 0, MaxBytes: 100},
		{Op: OpGather, Alg: "binomial", MinBytes: 200, MaxBytes: 0},
	}}
	if _, ok := gap.Lookup(OpGather, 150); ok {
		t.Fatal("lookup in a range gap should miss")
	}
}

func TestRuleString(t *testing.T) {
	cases := []struct {
		r    Rule
		want string
	}{
		{Rule{Alg: "linear"}, "linear"},
		{Rule{Alg: "linear", Segment: 4096}, "linear+seg4096"},
		{Rule{Alg: "binary", Degree: 4}, "binary/k=4"},
		{Rule{Alg: "binomial", Degree: 3, Segment: 1024}, "binomial/k=3+seg1024"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNewFromTableChecksCompatibility(t *testing.T) {
	tbl := sampleTable()
	if _, err := NewFromTable(nil, 16); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := NewFromTable(tbl, 8); err == nil || !strings.Contains(err.Error(), "tuned for 16 nodes") {
		t.Fatalf("node mismatch: err = %v", err)
	}
	if _, err := NewFromTable(tbl, 16); err != nil {
		t.Fatal(err)
	}
	bad := &Table{Rules: []Rule{{Op: "bcast", Alg: "linear"}}}
	if _, err := NewFromTable(bad, 16); err == nil {
		t.Fatal("invalid table accepted")
	}
}
