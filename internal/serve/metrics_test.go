package serve

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMetricsReportStableOrder guards the /metrics rendering against
// map-iteration nondeterminism: the per-endpoint stats must come out
// in sorted name order, byte-identically, on every render.
func TestMetricsReportStableOrder(t *testing.T) {
	m := NewMetrics()
	names := []string{"predict", "healthz", "models", "campaign", "metrics", "estimate"}
	for _, name := range names {
		m.Observe(name, 200, 3*time.Millisecond)
	}
	m.Observe("predict", 500, time.Millisecond)
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)

	reg := NewRegistry(4, nil, RegistryOptions{})
	jobs := NewJobs(JobsConfig{})
	render := func() []byte {
		rep := m.Report(reg, jobs, nil, false)
		if len(rep.Endpoints) != len(sorted) {
			t.Fatalf("Endpoints has %d entries, want %d", len(rep.Endpoints), len(sorted))
		}
		for i, ep := range rep.Endpoints {
			if ep.Name != sorted[i] {
				t.Fatalf("Endpoints[%d] = %q, want %q (sorted order)", i, ep.Name, sorted[i])
			}
			if got := rep.Requests[ep.Name]; got != ep.endpointStats {
				t.Fatalf("Requests[%q] = %+v disagrees with ordered entry %+v", ep.Name, got, ep.endpointStats)
			}
		}
		b, err := json.Marshal(rep.Endpoints)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := render()
	for i := 0; i < 16; i++ {
		if again := render(); string(again) != string(first) {
			t.Fatalf("render %d diverged:\nfirst: %s\nagain: %s", i, first, again)
		}
	}
	var errStats endpointStats
	for _, ep := range m.Report(reg, jobs, nil, false).Endpoints {
		if ep.Name == "predict" {
			errStats = ep.endpointStats
		}
	}
	if errStats.Count != 2 || errStats.Errors != 1 {
		t.Fatalf("predict stats = %+v, want Count=2 Errors=1", errStats)
	}
}

// TestMetricsPredictionCounters pins the PR 8 serving metrics: the
// seeded serve_predictions_total label pairs render (byte-stably) from
// the first report, Prediction/BatchSize feed the JSON report, and the
// Prometheus exposition carries the snapshot-swap gauge.
func TestMetricsPredictionCounters(t *testing.T) {
	m := NewMetrics()
	reg := NewRegistry(4, nil, RegistryOptions{})
	jobs := NewJobs(JobsConfig{})

	rep := m.Report(reg, jobs, nil, false)
	wantPairs := []string{
		"estimated/batch", "estimated/unary", "hit/batch",
		"hit/unary", "joined/batch", "joined/unary",
	}
	if len(rep.Predictions) != len(wantPairs) {
		t.Fatalf("Predictions = %v, want the %d seeded pairs", rep.Predictions, len(wantPairs))
	}
	for _, pair := range wantPairs {
		if v, ok := rep.Predictions[pair]; !ok || v != 0 {
			t.Fatalf("Predictions[%q] = %d,%v, want seeded 0", pair, v, ok)
		}
	}
	if rep.BatchSizes.Count != 0 {
		t.Fatalf("BatchSizes before any batch = %+v, want zero", rep.BatchSizes)
	}

	m.Prediction("hit", "batch", 40)
	m.Prediction("hit", "unary", 2)
	m.Prediction("estimated", "batch", 1)
	m.Prediction("shedded", "batch", 0) // n=0 must not create a series
	m.BatchSize(8)
	m.BatchSize(33)

	render := func() []byte {
		rep := m.Report(reg, jobs, nil, false)
		b, err := json.Marshal(struct {
			P map[string]int64
			B any
		}{rep.Predictions, rep.BatchSizes})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := render()
	for i := 0; i < 16; i++ {
		if again := render(); string(again) != string(first) {
			t.Fatalf("render %d diverged:\nfirst: %s\nagain: %s", i, first, again)
		}
	}

	rep = m.Report(reg, jobs, nil, false)
	if rep.Predictions["hit/batch"] != 40 || rep.Predictions["hit/unary"] != 2 ||
		rep.Predictions["estimated/batch"] != 1 {
		t.Fatalf("Predictions after counting = %v", rep.Predictions)
	}
	if _, ok := rep.Predictions["shedded/batch"]; ok {
		t.Fatal("Prediction with n=0 must not create a label pair")
	}
	if rep.BatchSizes.Count != 2 || rep.BatchSizes.Sum != 41 || rep.BatchSizes.Max != 33 {
		t.Fatalf("BatchSizes = %+v, want count 2 sum 41 max 33", rep.BatchSizes)
	}

	var expo strings.Builder
	if err := m.WritePrometheus(&expo, reg, jobs, nil, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`serve_predictions_total{cache="hit",batch="batch"} 40`,
		`serve_batch_size_count 2`,
		"serve_registry_snapshot_swaps_total",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, expo.String())
		}
	}
}
