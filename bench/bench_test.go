package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// countingSession counts the calls that install the simulator observer.
type countingSession struct {
	session
	observes *int
}

func (c countingSession) observe() (map[string]float64, error) {
	*c.observes++
	return c.session.observe()
}

// TestWorkloads runs each workload at one operation per client (a
// traced run needs two: one untraced, one traced), and checks that
// every metric is emitted, every output check passes, and only the
// traced run observes the simulator.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.ops = 1
			observes := 0
			setup := w.setup
			w.setup = func(seed int64) (session, error) {
				s, err := setup(seed)
				if err != nil {
					return nil, err
				}
				return countingSession{s, &observes}, nil
			}
			for _, trace := range []bool{false, true} {
				rec, err := run(w, runConfig{seed: 1, trace: trace, setups: 1, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if want := map[bool]int{false: 1, true: 2}[trace] * w.clients; rec.Failed != 0 || rec.Attempted != want {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, rec.Failed, rec.Attempted, rec.Errors)
				}
				line, err := rec.resultJSON()
				if err != nil {
					t.Fatal(err)
				}
				var c resultLine
				if err := json.Unmarshal(line, &c); err != nil {
					t.Fatal(err)
				}
				if !c.Correct || len(c.Metrics) != len(rec.defs()) {
					t.Fatalf("trace=%v: result line %s", trace, line)
				}
				for _, m := range rec.defs() {
					if _, ok := c.Metrics[m.Name]; !ok {
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					}
				}
				if len(rec.Digests) == 0 {
					t.Errorf("trace=%v: no output digests", trace)
				}
				if want := map[bool]int{false: 0, true: 1}[trace]; observes != want {
					t.Errorf("trace=%v: observer installed %d times, want %d", trace, observes, want)
				}
				if trace && w.name != "tune-table1" && w.name != "serve-mixed" && rec.Metrics["vtime.events_per_op"].Value == 0 {
					t.Errorf("observed estimation counted no events")
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var want []metric
		for _, d := range c.defs {
			want = append(want, metric{d.Name, d.Unit, d.Better, d.Bound})
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("BENCHMARK.json metrics\n%v\nwant\n%v", c.got, want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "w", "--trace", "1", "--seed", "3", "-trace", "x"})
	want := []string{"--workload", "w", "--trace=1", "--seed", "3", "-trace", "x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
