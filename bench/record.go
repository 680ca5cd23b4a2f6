package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/obs"
)

// envInfo identifies the machine and build a record was measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && e.Commit != "unknown" {
			e.Commit += "-dirty"
		}
	}
	return e
}

// record is one run's result: one line of the runs file that -compare
// reads.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Ops       int               `json:"ops"` // operations per client
	Env       envInfo           `json:"env"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]stat   `json:"metrics"`
	Digests   map[string]string `json:"digests,omitempty"`

	flame string // traced runs: the span flame summary
}

func newRecord(workload string, ops int, cfg runConfig) *record {
	return &record{
		Workload: workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Ops:      ops,
		Env:      currentEnv(),
		Metrics:  map[string]stat{},
	}
}

func (r *record) addPhase(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Errors = append(r.Errors, p.errs...)
}

// failRatio is failed over attempted operations.
func (r *record) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// defs are the metrics of the record's result line.
func (r *record) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// reported are the metrics a report of records in the mode lists: the
// result line's, and on untraced runs the exact metrics as well.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	out := append([]metricDef(nil), endToEnd...)
	for _, m := range perLayer {
		if m.Exact {
			out = append(out, m)
		}
	}
	return out
}

// print writes the human-readable report of the run.
func (r *record) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d ops per client  (%d/%d cpus, %s, commit %s)\n",
		r.Workload, r.Seed, mode, r.Ops, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintf(w, "   attempted %d  failed %d  fail_ratio %g\n", r.Attempted, r.Failed, r.failRatio())
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAIL %s\n", e)
	}
	fmt.Fprintf(w, "   %-28s %-8s %14s %14s %14s %7s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range reported(r.Trace) {
		s, ok := r.Metrics[m.Name]
		if !ok {
			continue // an exact metric the workload does not have
		}
		fmt.Fprintf(w, "   %-28s %-8s %14.6g %14.6g %14.6g %7d", m.Name, m.Unit, s.Value, s.Q1, s.Q3, s.N)
		if m.Moves != "" {
			fmt.Fprintf(w, "  -> %s", m.Moves)
		}
		fmt.Fprintln(w)
	}
	if r.flame != "" {
		fmt.Fprintf(w, "   spans (self time is a span minus its children):\n%s", r.flame)
	}
}

// resultLine is the one-line JSON result that ends the output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *record) resultJSON() ([]byte, error) {
	c := resultLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, m := range r.defs() {
		v := r.Metrics[m.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) { // only when no operation succeeded
			v = 0
		}
		c.Metrics[m.Name] = resultMetric{Value: v, Unit: m.Unit}
	}
	return json.Marshal(c)
}

// appendRecord adds the record as one JSON line to path.
func appendRecord(path string, r *record) error {
	for name, s := range r.Metrics { // JSON has no NaN
		if math.IsNaN(s.Value) || math.IsNaN(s.Q1) || math.IsNaN(s.Q3) {
			delete(r.Metrics, name)
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace saves a traced run's Chrome trace and raw CPU profile.
func writeTrace(dir string, r *record, sp *spanRec, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.Workload, r.Seed))
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	err = obs.WriteChromeTrace(f, sp.tr, func(track int) string { return fmt.Sprintf("client %d", track) })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
