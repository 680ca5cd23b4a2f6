package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/models"
)

// FuzzPredictScanner checks the /predict fast path against
// encoding/json: whenever the scanner accepts a body, encoding/json
// decodes the same body without error into a deeply equal struct, and
// no scanned string aliases the body.
func FuzzPredictScanner(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { scanBoth(t, body) })
}

// scanBoth decodes body with the scanner and with json.Decoder,
// reporting whether the scanner accepted it and failing the test if it
// did and the two disagree.
func scanBoth(t *testing.T, body []byte) bool {
	t.Helper()
	scanned := bytes.Clone(body)
	var bs bodyScanner
	var got, want PredictRequest
	if !bs.predict(scanned, &got) {
		return false
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", body, err)
	}
	for i := range scanned {
		scanned[i] = '#' // a string aliasing the body would change with it
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner and encoding/json disagree on %q:\nscanner  %+v\nencoding %+v", body, got, want)
	}
	return true
}

// hotBatch is a batch body of the benchmark's serve-mixed shape: rows
// over 8 hot keys, mixing scatter and gather, linear and binomial.
func hotBatch(rows int) []byte {
	b := []byte(`{"cluster":"table1","nodes":16,"profile":"lam","queries":[`)
	for q := 0; q < rows; q++ {
		if q > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"seed":%d,"op":"%s","alg":"%s","m":%d,"root":%d}`,
			1+q%8, []string{"scatter", "gather"}[q%2], []string{"linear", "binomial"}[q/2%2], 64<<(q%13), q%16)
	}
	return append(b, "]}"...)
}

// TestCanonicalBodiesTakeFastPath pins which bodies the scanner takes:
// the shapes the benchmark's serve workload and the README send, and a
// closed-loop client's unary and batched requests, all decode on the
// fast path, equal to encoding/json, and each departure from the
// canonical form goes to encoding/json.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	var overrides strings.Builder // 8 queries overriding m and seed
	overrides.WriteString(`{"cluster":"table1","nodes":16,"profile":"lam","seed":3,"op":"gather","alg":"linear","m":4096,"queries":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			overrides.WriteByte(',')
		}
		fmt.Fprintf(&overrides, `{"m":%d,"seed":%d}`, 4096<<uint(i%4), 1+i)
	}
	overrides.WriteString("]}")

	for name, body := range map[string]string{
		"serve-mixed batch":   string(hotBatch(256)),
		"serve-mixed cold":    `{"cluster":"table1","nodes":8,"profile":"lam","seed":1048577,"op":"gather","m":4096}`,
		"full unary":          `{"cluster":"table1","nodes":16,"profile":"lam","seed":1,"op":"gather","alg":"linear","m":4096}`,
		"size-and-seed batch": overrides.String(),
		"README unary":        `{"nodes":16,"op":"gather","m":65536}`,
		"README batch": `{"nodes":16,"op":"gather","m":4096,
  "queries":[{},{"m":65536},{"op":"scatter","alg":"binomial","root":3}]}`,
		"every member": `{ "cluster" : "table1hetero", "nodes": 12, "profile": "mpich", "seed": -7,
	"op": "bcast", "alg": "binary", "m": 8192, "root": 2, "degree": 4, "segment": 1024,
	"queries": [ {"cluster":"table1","nodes":3,"profile":"ideal","seed":9,"op":"reduce","alg":"chain","m":1,"root":0,"degree":3,"segment":0} ] }`,
		"words outside the vocabulary": `{"op":"allreduce","alg":"ring","cluster":"","profile":"x y"}`,
		"empty queries":                `{"queries":[]}`,
		"empty object":                 `{}`,
		"bytes after the object":       `{"op":"gather","m":4096} {"op":"scatter"}`,
	} {
		if !scanBoth(t, []byte(body)) {
			t.Errorf("%s: canonical body went to encoding/json: %.120s", name, body)
		}
	}

	for name, body := range map[string]string{
		"escaped string":       `{"op":"g\u0061ther","m":4096}`,
		"non-ASCII":            `{"op":"gäther","m":4096}`,
		"case-folded key":      `{"OP":"gather","m":4096}`,
		"unknown key":          `{"op":"gather","m":4096,"pad":"x"}`,
		"duplicate key":        `{"op":"gather","op":"scatter","m":4096}`,
		"duplicate queries":    `{"queries":[{"m":1}],"queries":[{"m":2}]}`,
		"duplicate row root":   `{"op":"gather","m":4096,"queries":[{"root":1,"root":2}]}`,
		"queries in a row":     `{"queries":[{"queries":[]}]}`,
		"null string":          `{"op":null,"m":4096}`,
		"null integer":         `{"op":"gather","m":null}`,
		"null queries":         `{"op":"gather","queries":null}`,
		"null row":             `{"op":"gather","queries":[null]}`,
		"null row root":        `{"op":"gather","queries":[{"root":null}]}`,
		"null body":            `null`,
		"fraction":             `{"op":"gather","m":1.0}`,
		"exponent":             `{"op":"gather","m":1e3}`,
		"leading zero":         `{"op":"gather","m":01}`,
		"19 digits":            `{"op":"gather","m":4096,"seed":1234567890123456789}`,
		"minus zero":           `{"op":"gather","m":4096,"root":-0}`,
		"string for integer":   `{"op":"gather","m":"4096"}`,
		"array body":           `[]`,
		"byte order mark":      "\xef\xbb\xbf" + `{"op":"gather","m":4096}`,
		"truncated":            `{"op":"gather","m":40`,
		"trailing comma":       `{"op":"gather","m":4096,}`,
		"control byte":         "{\"op\":\"gat\x01her\"}",
		"empty body":           ``,
		"object for queries":   `{"queries":{}}`,
		"integer for a string": `{"op":7}`,
	} {
		if scanBoth(t, []byte(body)) {
			t.Errorf("%s: scanner took a non-canonical body: %q", name, body)
		}
	}
}

// TestPredictRefusesUnknownFields checks that a /predict body naming a
// field PredictRequest does not have, at the top level or in a batch
// row, is refused with 400 bad_json instead of answering with that
// field's default. The same body spelled correctly answers from the
// cache.
func TestPredictRefusesUnknownFields(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	_, ts := testServer(t, Config{Preload: []*models.ModelFile{fakeFile(k)}})
	const platform = `"cluster":"table1","nodes":8,"profile":"lam","seed":1`
	if status, _, body := rawPost(t, ts.URL+"/predict", `{`+platform+`,"op":"scatter","m":1024,"root":3}`); status != http.StatusOK {
		t.Fatalf("correctly spelled body: status %d: %s", status, body)
	}
	for field, body := range map[string]string{
		"roott": `{` + platform + `,"op":"scatter","m":1024,"roott":3}`,
		"opp":   `{` + platform + `,"op":"scatter","m":1024,"queries":[{},{"opp":"bcast","alg":"binomial","mm":1024}]}`,
	} {
		status, _, out := rawPost(t, ts.URL+"/predict", body)
		if status != http.StatusBadRequest || !strings.Contains(string(out), `"code": "bad_json"`) ||
			!strings.Contains(string(out), `unknown field \"`+field+`\"`) {
			t.Errorf("%s: status %d, want 400 bad_json naming the unknown field %q: %s", body, status, field, out)
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so an
// allocation count sees the server's work alone.
type discardResponse struct {
	h      http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }

// TestCachedBatchAllocsFlatInRows gates the batch path's allocations
// per row: through Server.ServeHTTP, a cached 256-row batch allocates
// within a small constant of a 16-row batch over the same 8 hot keys.
// Decoding and answering a canonical row allocate nothing, so what a
// batch allocates is per request and per distinct key, and at most 32
// objects in all: a cached key's string comes rendered with its entry.
func TestCachedBatchAllocsFlatInRows(t *testing.T) {
	var preload []*models.ModelFile
	for seed := int64(1); seed <= 8; seed++ { // hotBatch's keys
		preload = append(preload, fullZooFile(t, Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: seed}))
	}
	s, err := New(context.Background(), Config{Preload: preload})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		body := hotBatch(rows)
		w := &discardResponse{h: http.Header{}}
		n := testing.AllocsPerRun(20, func() {
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if w.status != http.StatusOK || !bytes.HasPrefix(rec.Body.Bytes(), fmt.Appendf(nil, `{"count":%d,"errors":0,`, rows)) {
			t.Fatalf("%d-row batch: status %d, body %.200s", rows, w.status, rec.Body.Bytes())
		}
		return n
	}
	small, large := allocs(16), allocs(256)
	t.Logf("allocations per batch: 16 rows %v, 256 rows %v", small, large)
	if raceEnabled {
		return // the race detector drops sync.Pool puts at random, so pooled buffers reallocate
	}
	if large-small > 8 {
		t.Fatalf("a 256-row batch allocates %v objects, a 16-row one %v: more than 8 apart, so rows allocate", large, small)
	}
	if large > 32 || small > 32 {
		t.Fatalf("a cached batch allocates %v objects at 16 rows and %v at 256, want at most 32", small, large)
	}
}

// TestUnaryPredictIsOneRowBatch pins the one /predict answer path: a
// cached unary request through Server.ServeHTTP answers exactly the
// item a one-row batch of the same query answers, followed by a
// newline, and allocates no more than that batch.
func TestUnaryPredictIsOneRowBatch(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: 3}
	s, err := New(context.Background(), Config{Preload: []*models.ModelFile{fullZooFile(t, k)}})
	if err != nil {
		t.Fatal(err)
	}
	const query = `"cluster":"table1","nodes":16,"profile":"lam","seed":3,"op":"gather","m":4096,"root":5`
	serve := func(body string) ([]byte, float64) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		w := &discardResponse{h: http.Header{}}
		n := testing.AllocsPerRun(20, func() {
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		})
		return rec.Body.Bytes(), n
	}
	unary, unaryAllocs := serve("{" + query + "}")
	batch, batchAllocs := serve("{" + query + `,"queries":[{}]}`)
	var br struct{ Results []json.RawMessage }
	if err := json.Unmarshal(batch, &br); err != nil || len(br.Results) != 1 {
		t.Fatalf("one-row batch: %v: %s", err, batch)
	}
	if want := append(br.Results[0], '\n'); !bytes.Equal(unary, want) {
		t.Fatalf("unary body is not the batch item:\nunary %s\nitem  %s", unary, want)
	}
	t.Logf("allocations: unary %v, one-row batch %v", unaryAllocs, batchAllocs)
	if raceEnabled {
		return // the race detector drops sync.Pool puts at random, so pooled buffers reallocate
	}
	if unaryAllocs > batchAllocs {
		t.Fatalf("a cached unary request allocates %v objects, a one-row batch %v", unaryAllocs, batchAllocs)
	}
}

// raceEnabled reports a race-detector build (race_test.go sets it).
var raceEnabled bool
