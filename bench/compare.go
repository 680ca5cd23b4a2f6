package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// readRecords reads a runs file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func compareFiles(a, b string, stdout, stderr io.Writer) int {
	ra, err := readRecords(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rb, err := readRecords(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if failures := compareRuns(ra, rb, stdout); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "bench: FAIL", f)
		}
		return 1
	}
	return 0
}

// group is the runs of one workload in one mode.
type group struct {
	workload string
	trace    bool
}

func groupRecords(rs []record) map[group][]record {
	out := map[group][]record{}
	for _, r := range rs {
		g := group{r.Workload, r.Trace}
		out[g] = append(out[g], r)
	}
	return out
}

// compareRuns prints, for each workload and metric, both sides' median
// and quartiles over their runs and a verdict. It returns the reasons
// the comparison fails: a regressed end-to-end metric, a higher
// fail_ratio, or one seed producing two different output digests or
// exact metrics.
func compareRuns(a, b []record, w io.Writer) []string {
	failures := seedConflicts(append(append([]record(nil), a...), b...))
	ga, gb := groupRecords(a), groupRecords(b)
	var keys []group
	for g := range ga {
		keys = append(keys, g)
	}
	for g := range gb {
		if _, ok := ga[g]; !ok {
			keys = append(keys, g)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, g := range keys {
		ra, rb := ga[g], gb[g]
		mode := "untraced"
		if g.trace {
			mode = "traced"
		}
		fmt.Fprintf(w, "== %s  %s  A: %d runs  B: %d runs\n", g.workload, mode, len(ra), len(rb))
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fa, fb := failRatio(ra), failRatio(rb)
		fmt.Fprintf(w, "   fail_ratio  A %g  B %g\n", fa, fb)
		if fb > fa {
			failures = append(failures, fmt.Sprintf("%s %s: fail_ratio rose from %g to %g", g.workload, mode, fa, fb))
		}
		fmt.Fprintf(w, "   %-28s %-8s %34s %34s %8s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
		for _, m := range reported(g.trace) {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quantiles(va, 0.25, 0.5, 0.75), quantiles(vb, 0.25, 0.5, 0.75)
			verdict := ""
			switch {
			case m.Exact:
				verdict = exactVerdict(m.Name, ra, rb)
			case !g.trace:
				verdict = classify(m, va, vb)
				if verdict == "regressed" {
					failures = append(failures, fmt.Sprintf("%s: %s regressed (%.6g -> %.6g %s, bound %g)",
						g.workload, m.Name, qa[1], qb[1], m.Unit, m.Bound))
				}
			}
			delta := "-"
			if qa[1] != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(qb[1]-qa[1])/math.Abs(qa[1]))
			}
			fmt.Fprintf(w, "   %-28s %-8s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] %8s  %s\n",
				m.Name, m.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], delta, verdict)
		}
	}
	return failures
}

func failRatio(rs []record) float64 {
	var total record
	for _, r := range rs {
		total.Attempted += r.Attempted
		total.Failed += r.Failed
	}
	return total.failRatio()
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if s, ok := r.Metrics[name]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

// classify judges side b against baseline a by the metric's bound and
// the quartile-spread rule. Where either side's interquartile spread is
// wider than the bound, the medians cannot resolve a change: the
// verdict is unresolved unless every run of one side beats every run of
// the other. Otherwise a median worse by more than the bound regressed,
// and b improved when its interquartile range lies wholly on the better
// side of a's and its median is better by more than a tenth of the
// bound (so that near-exact counts do not flip on a few runtime
// allocations).
func classify(m metricDef, a, b []float64) string {
	sign := 1.0 // oriented so that lower is better
	if m.Better == "higher" {
		sign = -1
	}
	orient := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = sign * x
		}
		return out
	}
	oa, ob := orient(a), orient(b)
	qa, qb := quantiles(oa, 0, 0.25, 0.5, 0.75, 1), quantiles(ob, 0, 0.25, 0.5, 0.75, 1)
	scale := func(q []float64) float64 { // the median's magnitude, 1 for a zero median
		if v := math.Abs(q[2]); v > 0 {
			return v
		}
		return 1
	}
	worse := (qb[2] - qa[2]) / scale(qa)
	spread := math.Max((qa[3]-qa[1])/scale(qa), (qb[3]-qb[1])/scale(qb))
	switch {
	case spread > m.Bound:
		switch {
		case qb[4] < qa[0]:
			return "improved"
		case qb[0] > qa[4] && worse > m.Bound:
			return "regressed"
		}
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	case qb[3] < qa[1] && -worse > m.Bound/10:
		return "improved"
	}
	return "unchanged"
}

// exactVerdict compares an exact metric seed for seed: "changed" when
// some seed has different values on the two sides, "identical" when
// every seed both sides ran agrees, "no common seed" otherwise.
func exactVerdict(name string, a, b []record) string {
	bySeed := map[int64]float64{}
	for _, r := range a {
		if s, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = s.Value
		}
	}
	verdict := "no common seed"
	for _, r := range b {
		s, ok := r.Metrics[name]
		v, common := bySeed[r.Seed]
		switch {
		case !ok || !common:
		case s.Value != v:
			return "changed"
		default:
			verdict = "identical"
		}
	}
	return verdict
}

// seedValues are what a record's seed determines: its output digests,
// each named by the seed and operation that produced it, and its exact
// metrics, named by seed.
func seedValues(r record) map[string]string {
	out := map[string]string{}
	for n, d := range r.Digests {
		out[n] = d
	}
	for _, m := range perLayer {
		if s, ok := r.Metrics[m.Name]; ok && m.Exact {
			out[fmt.Sprintf("seed=%d/%s", r.Seed, m.Name)] = strconv.FormatFloat(s.Value, 'g', -1, 64)
		}
	}
	return out
}

// seedConflicts reports every seed-determined value that two runs of
// one workload disagree on, so runs with overlapping seeds cross-check
// each other.
func seedConflicts(rs []record) []string {
	type key struct{ workload, name string }
	seen := map[key]string{}
	var out []string
	for _, r := range rs {
		vals := seedValues(r)
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			k, v := key{r.Workload, n}, vals[n]
			if prev, ok := seen[k]; ok && prev != v {
				out = append(out, fmt.Sprintf("%s: %s differs (%s vs %s)", r.Workload, n, prev, v))
			}
			seen[k] = v
		}
	}
	return out
}
