package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/models"
)

// FuzzPredictBody fuzzes the /predict decoder — unary and batch bodies
// over the whole query vocabulary — against a preloaded synthetic
// 16-node zoo. Registry misses fail fast through the task hook, so the
// fuzzer never simulates. Every response must be a typed error or
// answered rows that equal in-process Predict(Query) bit for bit.
func FuzzPredictBody(f *testing.F) {
	k := Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: 3}
	s, err := New(context.Background(), Config{
		Preload: []*models.ModelFile{fullZooFile(f, k)},
		taskHook: func(_ campaign.Grid, tk campaign.Task) campaign.Result {
			r := tk.NewResult()
			r.Err = "fuzz: estimation disabled"
			return r
		},
		sleep: func(context.Context, time.Duration) bool { return true },
	})
	if err != nil {
		f.Fatal(err)
	}
	ref := newRefZoo(f, k)

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			var eb errorBody
			dec := json.NewDecoder(bytes.NewReader(out))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without a typed error body (%v): %s", rec.Code, err, out)
			}
			if eb.Code == "panic" {
				t.Fatalf("handler panicked on %q", body)
			}
			return
		}
		if !json.Valid(out) {
			t.Fatalf("200 response is not JSON: %s", out)
		}
		if !bytes.HasPrefix(out, []byte(`{"count":`)) {
			var r servedRow
			if err := json.Unmarshal(out, &r); err != nil {
				t.Fatal(err)
			}
			ref.check(t, r)
			return
		}
		var br struct {
			Count   int         `json:"count"`
			Errors  int         `json:"errors"`
			Results []servedRow `json:"results"`
		}
		if err := json.Unmarshal(out, &br); err != nil {
			t.Fatal(err)
		}
		if br.Count != len(br.Results) {
			t.Fatalf("count %d, %d results", br.Count, len(br.Results))
		}
		for _, r := range br.Results {
			ref.check(t, r)
		}
	})
}

// refZoo is the in-process reference served rows are checked against:
// the predictors of a separately built zoo file, so the comparison does
// not share objects with the registry.
type refZoo struct {
	key   Key
	preds map[string]models.CollectivePredictor
	lmo   *models.LMOX
}

func newRefZoo(tb testing.TB, k Key) refZoo {
	mf := fullZooFile(tb, k)
	plogp, err := mf.GetPLogP()
	if err != nil {
		tb.Fatal(err)
	}
	return refZoo{key: k, lmo: mf.GetLMO(), preds: map[string]models.CollectivePredictor{
		"hockney": mf.Hockney, "het-hockney": mf.GetHetHockney(), "logp": mf.LogP,
		"loggp": mf.LogGP, "plogp": plogp, "lmo": mf.GetLMO(),
	}}
}

// check asserts that a served row is a typed per-item error, or holds
// exactly the families whose in-process Predict answers the echoed
// query, bit for bit, plus the matching escalation band.
func (z refZoo) check(t *testing.T, r servedRow) {
	t.Helper()
	if r.Code != "" || r.Error != "" {
		if r.Code == "" || r.Error == "" || r.Predictions != nil {
			t.Fatalf("per-item error is not typed: %+v", r)
		}
		return
	}
	if r.Key != z.key.String() || r.Nodes != z.key.Nodes {
		t.Fatalf("answered row for a key that cannot be cached: %+v", r)
	}
	coll, err := models.ParseCollective(r.Op)
	if err != nil {
		t.Fatalf("answered row echoes op %q: %v", r.Op, err)
	}
	alg, err := collective.ParseAlg(r.Alg)
	if err != nil {
		t.Fatalf("answered row echoes alg %q: %v", r.Alg, err)
	}
	q := models.Query{Coll: coll, Alg: alg, Root: r.Root, N: r.Nodes, M: r.M, Degree: r.Degree, Segment: r.Segment}
	for name, p := range z.preds {
		want, err := p.Predict(q)
		got, ok := r.Predictions[name]
		switch {
		case err != nil && ok:
			t.Fatalf("%s answered %+v, but Predict errors: %v", name, q, err)
		case err == nil && !ok:
			t.Fatalf("%s missing for %+v", name, q)
		case err == nil && got != want:
			t.Fatalf("%s served %v, in-process Predict %v for %+v", name, got, want, q)
		}
	}
	lo, hi, band := GatherBand(z.lmo, q)
	if band != (r.BandLow != nil && r.BandHigh != nil) || band && (*r.BandLow != lo || *r.BandHigh != hi) {
		t.Fatalf("band for %+v: served %v/%v, in-process %v %v..%v", q, r.BandLow, r.BandHigh, band, lo, hi)
	}
}

// servedRow decodes one answered unary response or batch item.
type servedRow struct {
	Key         string             `json:"key"`
	Cache       string             `json:"cache"`
	Code        string             `json:"code"`
	Error       string             `json:"error"`
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
