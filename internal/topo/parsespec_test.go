package topo

import (
	"slices"
	"strings"
	"testing"
)

// TestParseSpecValid pins the accepted grammar: every documented kind
// parses and produces the advertised node count, up to the size limits.
func TestParseSpecValid(t *testing.T) {
	cases := []struct {
		spec  string
		nodes int
	}{
		{"single:8", 8},
		{"single:16", 16},
		{"twotier:4x8", 32},
		{"fattree:4", 16}, // k³/4
		{"multicluster:3x5", 15},
		{"multicluster:3x6", 18},
		// At the limits: 4 096 hosts, 512 switches that hold hosts.
		{"single:4096", 4096},
		{"twotier:512x8", 4096},
		{"fattree:24", 3456}, // fattree:26 has 4 394 hosts
		{"multicluster:512x8", 4096},
	}
	for _, c := range cases {
		tp, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): unexpected error %v", c.spec, err)
			continue
		}
		if tp.Nodes() != c.nodes {
			t.Errorf("ParseSpec(%q).Nodes() = %d, want %d", c.spec, tp.Nodes(), c.nodes)
		}
	}
}

// TestParseSpecErrors walks every rejection path: missing separator,
// malformed or non-positive counts and dimensions, odd or too-small
// fat-tree arity, specs past the size limits, and unknown kinds. Each
// error must mention the offending spec so operators can find the bad
// flag. No case builds a topology: an oversized spec is refused before
// anything is allocated, including one whose dimensions overflow an int
// when multiplied.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"single8", "needs the form kind:params"},
		{"", "needs the form kind:params"},
		{"fattree", "needs the form kind:params"},
		{"single:", "bad node count"},
		{"single:abc", "bad node count"},
		{"single:0", "bad node count"},
		{"single:-3", "bad node count"},
		{"twotier:4", "needs AxB dimensions"},
		{"twotier:x", "bad dimensions"},
		{"twotier:4x", "bad dimensions"},
		{"twotier:ax8", "bad dimensions"},
		{"twotier:0x8", "bad dimensions"},
		{"twotier:4x-1", "bad dimensions"},
		{"fattree:", "even k >= 2"},
		{"fattree:3", "even k >= 2"},
		{"fattree:0", "even k >= 2"},
		{"fattree:-4", "even k >= 2"},
		{"multicluster:5", "needs AxB dimensions"},
		{"multicluster:0x5", "bad dimensions"},
		// Past the limits, just and far.
		{"single:4097", "too large"},
		{"single:9223372036854775807", "too large"},
		{"twotier:512x9", "too large"},
		{"twotier:513x1", "too large"},
		{"twotier:3037000500x3037000500", "too large"},
		{"fattree:26", "too large"},
		{"fattree:4000000", "too large"},
		{"fattree:9223372036854775806", "too large"},
		{"multicluster:512x9", "too large"},
		{"multicluster:513x1", "too large"},
		{"multicluster:3037000500x3037000500", "too large"},
		{"ring:8", "unknown topology kind"},
		{"Single:8", "unknown topology kind"},
	}
	for _, c := range cases {
		tp, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error, got topology %q", c.spec, tp.Name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) error = %q, want substring %q", c.spec, err, c.wantSub)
		}
		if !strings.Contains(err.Error(), "topo:") {
			t.Errorf("ParseSpec(%q) error %q does not carry the topo: prefix", c.spec, err)
		}
	}
}

// FuzzParseSpec feeds ParseSpec arbitrary strings. It must return a
// topology or an error and never panic, and an accepted spec's Name
// must parse back to the same switches, node placement and edges.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// Every spec the repository's docs, tests and commands use.
		"single:8", "single:16", "twotier:4x4", "twotier:4x8",
		"fattree:4", "fattree:8", "fattree:16", "fattree:24",
		"multicluster:2x4", "multicluster:2x32", "multicluster:3x5", "multicluster:3x6",
		"single:0", "fattree:0", "fattree:3", "twotier:0x8", "twotier:4", "twotier:4x", "twotier:x",
		"multicluster:0x5", "multicluster:5", "ring:8",
		// Specs whose dimensions used to reach make unchecked.
		"twotier:3037000500x3037000500", "multicluster:3037000500x3037000500",
		"fattree:4000000", "single:9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := ParseSpec(s)
		if err != nil {
			if tp != nil || !strings.HasPrefix(err.Error(), "topo: ") {
				t.Fatalf("ParseSpec(%q) = %v, %v; want a nil topology and a topo: error", s, tp, err)
			}
			return
		}
		back, err := ParseSpec(tp.Name)
		if err != nil {
			t.Fatalf("ParseSpec(%q) named its topology %q, which does not parse: %v", s, tp.Name, err)
		}
		if back.Name != tp.Name || back.Switches != tp.Switches ||
			!slices.Equal(back.NodeOf, tp.NodeOf) || !slices.Equal(back.Edges, tp.Edges) {
			t.Fatalf("ParseSpec(%q) and ParseSpec(%q) built different topologies", s, tp.Name)
		}
	})
}
