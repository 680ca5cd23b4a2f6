package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 102, 98}, "unchanged"},
		{"within bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, "unchanged"},
		{"slower", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "regressed"},
		{"faster", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "improved"},
		{"barely faster", lower, []float64{100, 100.1, 99.9}, []float64{99.5, 99.6, 99.4}, "unchanged"},
		{"fewer ops", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{"noisy", lower, []float64{60, 100, 140}, []float64{70, 125, 150}, "unresolved"},
		{"noisy but disjoint", lower, []float64{60, 100, 140}, []float64{30, 40, 50}, "improved"},
	} {
		if got := classify(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRunsFails(t *testing.T) {
	rec := func(seed int64, failed int, digest string, rate, cost float64) record {
		m := map[string]stat{}
		for _, d := range endToEnd {
			m[d.Name] = single(1)
		}
		m["ops_per_s"] = single(rate)
		m["estimate.virtual_cost_s"] = single(cost)
		return record{Workload: "w", Seed: seed, Attempted: 10, Failed: failed,
			Metrics: m, Digests: map[string]string{fmt.Sprintf("seed=%d", seed): digest}}
	}
	base := []record{rec(1, 0, "aa", 100, 5), rec(2, 0, "bb", 101, 6), rec(3, 0, "cc", 99, 7)}
	for _, c := range []struct {
		name string
		b    []record
		want string
	}{
		{"agree", []record{rec(1, 0, "aa", 100, 5), rec(2, 0, "bb", 100, 6)}, ""},
		{"digest", []record{rec(1, 0, "xx", 100, 5)}, "seed=1 differs"},
		{"failures", []record{rec(1, 1, "aa", 100, 5)}, "fail_ratio rose"},
		{"slower", []record{rec(1, 0, "aa", 50, 5), rec(2, 0, "bb", 51, 6)}, "ops_per_s regressed"},
		{"exact", []record{rec(2, 0, "bb", 100, 6.0000001)}, "seed=2/estimate.virtual_cost_s differs"},
	} {
		failures := compareRuns(base, c.b, io.Discard)
		got := strings.Join(failures, "\n")
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: failures %q, want one containing %q", c.name, got, c.want)
		}
	}
}

func TestExactVerdict(t *testing.T) {
	rec := func(seed int64, cost float64) record {
		return record{Seed: seed, Metrics: map[string]stat{"estimate.virtual_cost_s": single(cost)}}
	}
	a := []record{rec(1, 5), rec(2, 6)}
	for _, c := range []struct {
		name string
		b    []record
		want string
	}{
		{"same seeds", []record{rec(2, 6), rec(1, 5)}, "identical"},
		{"one seed moved", []record{rec(1, 5), rec(2, 6.5)}, "changed"},
		{"disjoint seeds", []record{rec(3, 9)}, "no common seed"},
	} {
		if got := exactVerdict("estimate.virtual_cost_s", a, c.b); got != c.want {
			t.Errorf("%s: exactVerdict = %s, want %s", c.name, got, c.want)
		}
	}
}
