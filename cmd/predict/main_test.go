package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/stats"
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
		{name: "bad flag query", flags: []string{"-alg", "ring"}, rows: `{}`, wantCode: 2, wantErr: "alg must be"},
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
