package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/tuned"
)

const testNodes = 8

// zooFile builds a synthetic model file carrying every family for an
// 8-node Table I prefix, with an LMO irregular region so linear gather
// rows carry the escalation band.
func zooFile(t *testing.T) *models.ModelFile {
	t.Helper()
	n := testNodes
	het := models.NewHetHockney(n)
	lmo := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		lmo.C[i] = 1e-5 + 1e-6*float64(i)
		lmo.T[i] = 2e-9
		for j := 0; j < n; j++ {
			if i != j {
				het.Alpha[i][j] = 1e-4 + 1e-6*float64(i+j)
				het.Beta[i][j] = 1e-8
				lmo.L[i][j] = 5e-5
				lmo.Beta[i][j] = 1e8
			}
		}
	}
	lmo.Gather = models.GatherEmpirical{
		M1: 1 << 10, M2: 1 << 16,
		EscModes: []stats.Mode{{Value: 3e-3, Count: 1}},
		ProbLow:  0.1, ProbHigh: 0.9,
	}
	pw := func(y0, y1 float64) *stats.PWLinear {
		p, err := stats.NewPWLinear([]float64{1, 1 << 20}, []float64{y0, y1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mf := models.NewModelFile(
		&models.Hockney{Alpha: 1e-4, Beta: 1e-8},
		het,
		&models.LogP{L: 5e-5, O: 1e-5, G: 2e-6, W: 1 << 10, P: n},
		&models.LogGP{L: 5e-5, O: 1e-5, SmG: 2e-6, BigG: 1e-8, P: n},
		&models.PLogP{L: 5e-5, OS: pw(1e-5, 1e-3), OR: pw(1e-5, 2e-3), G: pw(2e-5, 4e-3), P: n},
		lmo,
	)
	mf.Meta = &models.Meta{Cluster: "table1", Nodes: n, Profile: cluster.LAM().Name, Seed: 1}
	return mf
}

// batchRow is one decoded -batch output line.
type batchRow struct {
	Op          string             `json:"op"`
	Alg         string             `json:"alg"`
	M           int                `json:"m"`
	Nodes       int                `json:"nodes"`
	Root        int                `json:"root"`
	Degree      int                `json:"degree"`
	Segment     int                `json:"segment"`
	Predictions map[string]float64 `json:"predictions"`
	BandLow     *float64           `json:"band_low"`
	BandHigh    *float64           `json:"band_high"`
}

func TestBatchMode(t *testing.T) {
	dir := t.TempDir()
	mf := zooFile(t)
	data, err := mf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "zoo.json")
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	plogp, err := mf.GetPLogP()
	if err != nil {
		t.Fatal(err)
	}
	zoo := map[string]models.CollectivePredictor{
		"hockney": mf.Hockney, "het-hockney": mf.GetHetHockney(), "logp": mf.LogP,
		"loggp": mf.LogGP, "plogp": plogp, "lmo": mf.GetLMO(),
	}

	cases := []struct {
		name     string
		flags    []string
		rows     string
		wantCode int
		wantRows int
		wantErr  string // stderr substring when wantCode != 0
		wantBand int    // rows carrying the escalation band
	}{
		{
			name:  "flag defaults and overrides",
			flags: []string{"-op", "gather", "-m", "4096"},
			rows: `{}
{"op":"scatter","alg":"binomial","root":3}

{"alg":"linear","m":100}
`,
			wantRows: 3, wantBand: 1,
		},
		{
			name: "every collective and shape",
			rows: `{"op":"bcast","alg":"binomial","m":1024}
{"op":"reduce","alg":"chain","m":2048,"root":7}
{"op":"gather","alg":"binary","degree":4,"m":8192}
{"op":"scatter","alg":"binary","m":512}
{"op":"gather","m":10000,"segment":4096}
{"op":"bcast","alg":"binomial","m":3000,"segment":1000}
`,
			wantRows: 6,
		},
		{
			name:     "piece-count limit",
			rows:     `{"m":4096,"segment":1}` + "\n" + `{"m":4097,"segment":1}` + "\n",
			wantCode: 2, wantRows: 1, wantErr: "line 2: segment 1 splits m=4097 into 4097 pieces",
		},
		{name: "unknown op", rows: `{"op":"allgather"}`, wantCode: 2, wantErr: "line 1: op must be"},
		{name: "unknown alg", rows: `{"alg":"ring"}`, wantCode: 2, wantErr: "line 1: alg must be"},
		{name: "degree off the k-ary family", rows: `{"alg":"chain","degree":3}`, wantCode: 2, wantErr: "line 1:"},
		{name: "root out of range", rows: `{"root":8}`, wantCode: 2, wantErr: "line 1: root must be in [0, 8)"},
		{name: "malformed json", rows: `{"m":`, wantCode: 2, wantErr: "line 1:"},
		{
			name:     "misspelled field",
			rows:     `{"m":1024}` + "\n" + `{"opp":"bcast","alg":"binomial","mm":1024}` + "\n",
			wantCode: 2, wantRows: 1, wantErr: `line 2: json: unknown field "opp"`,
		},
		{name: "two objects on a line", rows: `{"m":1024} {"m":2048}`, wantCode: 2, wantErr: "line 1:"},
		{name: "bad flag query", flags: []string{"-alg", "ring"}, rows: `{}`, wantCode: 2, wantErr: "alg must be"},
		{
			name:     "row names the node count",
			rows:     `{"m":1024}` + "\n" + `{"nodes":8,"m":1024}` + "\n",
			wantCode: 2, wantRows: 1, wantErr: "line 2: cluster, nodes, profile and seed are fixed by the flags",
		},
		{
			name:     "row names a platform",
			rows:     `{"cluster":"nope","seed":9,"profile":"zzz","m":2048}`,
			wantCode: 2, wantErr: "line 1: cluster, nodes, profile and seed are fixed by the flags",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batchPath := filepath.Join(t.TempDir(), "rows.jsonl")
			if err := os.WriteFile(batchPath, []byte(tc.rows), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			args := append([]string{"-models", modelPath, "-batch", batchPath}, tc.flags...)
			code := run(args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.wantCode, stderr.String())
			}
			if tc.wantCode != 0 && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.wantErr)
			}
			if tc.wantCode == 0 && !strings.Contains(stderr.String(), "Loaded models from") {
				t.Fatalf("status line missing from stderr: %q", stderr.String())
			}

			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if stdout.Len() == 0 {
				lines = nil
			}
			if len(lines) != tc.wantRows {
				t.Fatalf("%d output rows, want %d:\n%s", len(lines), tc.wantRows, stdout.String())
			}
			bands := 0
			for i, line := range lines {
				var row batchRow
				dec := json.NewDecoder(strings.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&row); err != nil {
					t.Fatalf("row %d is not a prediction (status leaked to stdout?): %v\n%s", i, err, line)
				}
				if row.BandLow != nil {
					bands++
				}
				checkRow(t, zoo, row)
			}
			if bands != tc.wantBand {
				t.Fatalf("%d rows carry the band, want %d", bands, tc.wantBand)
			}
		})
	}
}

// A query refused before anything runs leaves stdout empty with
// -models too: the load's status lines print only once the flag query
// and the bcast, reduce and -tuned rules pass.
func TestRefusedQueryLeavesStdoutEmpty(t *testing.T) {
	data, err := zooFile(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "zoo.json")
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flags := range [][]string{
		{"-alg", "foo"},
		{"-mpi", "mpich", "-alg", "foo"}, // a LAM file: the profile note waits too
		{"-op", "reduce", "-alg", "linear"},
		{"-op", "bcast", "-alg", "binomial", "-tuned", "t.json"},
		{"-root", "8"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-models", modelPath}, flags...), &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Fatalf("%v: exit code %d, want 2 with the refusal on stderr and nothing on stdout\nstdout:\n%s\nstderr:\n%s",
				flags, code, stdout.String(), stderr.String())
		}
	}
}

// checkRow asserts that a row holds exactly the families whose
// in-process Predict answers its query, with bit-identical values.
func checkRow(t *testing.T, zoo map[string]models.CollectivePredictor, row batchRow) {
	t.Helper()
	coll, err := models.ParseCollective(row.Op)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := collective.ParseAlg(row.Alg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Nodes != testNodes {
		t.Fatalf("row nodes %d, want %d", row.Nodes, testNodes)
	}
	q := models.Query{Coll: coll, Alg: alg, Root: row.Root, N: row.Nodes, M: row.M, Degree: row.Degree, Segment: row.Segment}
	for name, p := range zoo {
		want, err := p.Predict(q)
		got, ok := row.Predictions[name]
		switch {
		case err != nil && ok:
			t.Fatalf("%s answered %+v in the row, but Predict errors: %v", name, q, err)
		case err == nil && !ok:
			t.Fatalf("%s missing from the row for %+v", name, q)
		case err == nil && got != want:
			t.Fatalf("%s row value %v != in-process Predict %v for %+v", name, got, want, q)
		}
	}
	if len(row.Predictions) == 0 {
		t.Fatalf("row for %+v has no predictions", q)
	}
}

// TestTunedMode drives -tuned: the decision's "observed here" figure is
// autotune.Simulate of the rule's shape with -reps repetitions, the
// procedure that timed it when it was tuned, and a table tuned for
// another root or cluster size is an input error reported before any
// estimation, on stderr only.
func TestTunedMode(t *testing.T) {
	dir := t.TempDir()
	data, err := zooFile(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "zoo.json")
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tbl := &tuned.Table{
		Version: tuned.TableVersion,
		Meta:    &models.Meta{Cluster: "table1", Nodes: testNodes, Profile: cluster.LAM().Name, Seed: 1, Est: "autotune"},
		Rules: []tuned.Rule{
			{Op: tuned.OpGather, MaxBytes: 8 << 10, Alg: "binomial"},
			{Op: tuned.OpGather, MinBytes: 8 << 10, Alg: "linear", Segment: 4 << 10, PredictedS: 0.0011, SimulatedS: 0.0007},
		},
	}
	if data, err = tbl.Marshal(); err != nil {
		t.Fatal(err)
	}
	tablePath := filepath.Join(dir, "table.json")
	if err := os.WriteFile(tablePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("observed here is Simulate", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		args := []string{"-models", modelPath, "-tuned", tablePath, "-op", "gather", "-m", "16384", "-reps", "3"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
		}
		cfg := experiment.Config{Cluster: cluster.Table1().Prefix(testNodes), Profile: cluster.LAM(), Seed: 1, ObsReps: 3}
		want, err := autotune.Simulate(cfg, tuned.OpGather, optimize.Shape{Alg: mpi.Linear, Segment: 4 << 10}, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			"tuned decision for gather at 16384 bytes: linear+seg4096",
			"tuning-time: predicted 0.001100 s, simulated 0.000700 s",
			fmt.Sprintf("observed here: %.6f s (", want),
		} {
			if !strings.Contains(stdout.String(), line) {
				t.Fatalf("stdout lacks %q:\n%s", line, stdout.String())
			}
		}
	})

	for _, tc := range []struct {
		name    string
		flags   []string
		wantErr string
	}{
		{"root mismatch", []string{"-topo", "single:8", "-root", "3"}, "was tuned for root 0; -root is 3"},
		{"node mismatch", nil, "was tuned for 8 nodes; this cluster has 16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-tuned", tablePath, "-op", "gather"}, tc.flags...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout is not empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// A -reps below 1 is refused before anything runs: the observation and
// the tuned shape's timing both run -reps repetitions, and no count
// below one times anything.
func TestRepsBelowOneExit2(t *testing.T) {
	for _, reps := range []string{"0", "-3"} {
		t.Run(reps, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-op", "gather", "-reps", reps}, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout should be empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), "-reps "+reps) {
				t.Fatalf("stderr does not name the flag:\n%s", stderr.String())
			}
		})
	}
}

// Bcast and reduce are observed over mpi's binomial trees, the one tree
// the observation runs for them: -alg binomial observes what
// experiment.Observe times, and another -alg is refused before anything
// runs, since it would set one tree's prediction beside another tree's
// time; so is -tuned, whose tables hold scatter and gather only.
func TestBcastReduceObservation(t *testing.T) {
	dir := t.TempDir()
	data, err := zooFile(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "zoo.json")
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		coll    models.Collective
		m       int
		flags   []string
		wantErr string // empty: the run observes coll at m bytes
	}{
		{"bcast observes the binomial tree", models.CollBcast, 4096, []string{"-alg", "binomial"}, ""},
		{"reduce observes the binomial tree", models.CollReduce, 65536, []string{"-alg", "binomial"}, ""},
		{"reduce refuses another tree", models.CollReduce, 4096, []string{"-alg", "linear"}, "-alg linear"},
		{"bcast refuses a tuned table", models.CollBcast, 4096, []string{"-alg", "binomial", "-tuned", "t.json"}, "-tuned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-op", tc.coll.String(), "-m", fmt.Sprint(tc.m), "-reps", "3"}, tc.flags...)
			if tc.wantErr != "" {
				if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.wantErr) {
					t.Fatalf("exit code %d, want 2 with %q on stderr and nothing on stdout\nstdout:\n%s\nstderr:\n%s",
						code, tc.wantErr, stdout.String(), stderr.String())
				}
				return
			}
			if code := run(append(args, "-models", modelPath), &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
			}
			cfg := experiment.Config{Cluster: cluster.Table1().Prefix(testNodes), Profile: cluster.LAM(), Seed: 1, ObsReps: 3, Sizes: []int{tc.m}}
			want, err := experiment.Observe(cfg, tc.coll, mpi.Binomial)
			if err != nil {
				t.Fatal(err)
			}
			if line := fmt.Sprintf("observed (mean of 3)  %.6f", want.Mean[0]); !strings.Contains(stdout.String(), line) {
				t.Fatalf("stdout lacks %q:\n%s", line, stdout.String())
			}
		})
	}
}
