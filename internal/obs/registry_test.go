package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	req := reg.Counter("http_requests_total", "requests served", "endpoint")
	req.Add(3, "predict")
	req.Add(1, "estimate")
	g := reg.Gauge("uptime_seconds", "seconds since start")
	g.Set(12.5)
	h := reg.Histogram("request_seconds", "request latency", []float64{0.01, 0.1, 1}, "endpoint")
	h.Observe(0.005, "predict")
	h.Observe(0.05, "predict")
	h.Observe(5, "predict")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{endpoint="estimate"} 1`,
		`http_requests_total{endpoint="predict"} 3`,
		"# TYPE uptime_seconds gauge",
		"uptime_seconds 12.5",
		"# TYPE request_seconds histogram",
		`request_seconds_bucket{endpoint="predict",le="0.01"} 1`,
		`request_seconds_bucket{endpoint="predict",le="0.1"} 2`,
		`request_seconds_bucket{endpoint="predict",le="1"} 2`,
		`request_seconds_bucket{endpoint="predict",le="+Inf"} 3`,
		`request_seconds_sum{endpoint="predict"} 5.055`,
		`request_seconds_count{endpoint="predict"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render in name order.
	if strings.Index(out, "http_requests_total") > strings.Index(out, "uptime_seconds") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	// Byte-stable across renders.
	var again bytes.Buffer
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("two renders of the same state differ")
	}
}

func TestRegistryAccessors(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	c.Add(2)
	if got := c.Value(); got != 2 {
		t.Fatalf("counter value = %v", got)
	}
	g := reg.Gauge("g", "", "k")
	g.Set(4, "a")
	g.Set(3, "a")
	if got := g.fam.get([]string{"a"}).value; got != 3 {
		t.Fatalf("gauge value = %v, want the last Set's 3", got)
	}
	h := reg.Histogram("h", "", nil, "k")
	h.Observe(0.2, "b")
	h.Observe(0.4, "b")
	s, ok := h.Sample("b")
	if !ok || s.Count != 2 || s.Sum != 0.6000000000000001 && s.Sum != 0.6 || s.Max != 0.4 {
		t.Fatalf("histogram sample = %+v ok=%v", s, ok)
	}
	sets := h.LabelSets()
	if len(sets) != 1 || sets[0][0] != "b" {
		t.Fatalf("label sets = %v", sets)
	}
	if _, ok := h.Sample("never"); ok {
		t.Fatal("untouched series reports ok")
	}
}

// TestLabeledUpdateZeroAllocDistinctSets pins the series lookup: an
// update of an existing two-label series (the serving path's
// serve_predictions_total{cache,batch}) allocates nothing, and label
// sets that join to the same bytes stay distinct series.
func TestLabeledUpdateZeroAllocDistinctSets(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("preds_total", "", "cache", "batch")
	for _, cache := range []string{"hit", "estimated", "joined"} {
		c.Add(0, cache, "unary")
		c.Add(0, cache, "batch")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Add(1, "hit", "batch") }); allocs != 0 {
		t.Fatalf("update of an existing series allocates %v objects, want 0", allocs)
	}
	if got := c.Value("hit", "batch"); got != 101 {
		t.Fatalf("hit/batch = %v, want 101", got)
	}

	nul := reg.Counter("nul_total", "", "a", "b")
	nul.Add(1, "a\x00", "b")
	nul.Add(2, "a", "\x00b")
	if sets := nul.LabelSets(); len(sets) != 2 {
		t.Fatalf("label sets %q share a series: %d sets", sets, len(sets))
	}
	if x, y := nul.Value("a\x00", "b"), nul.Value("a", "\x00b"); x != 1 || y != 2 {
		t.Fatalf("series values %v and %v, want 1 and 2", x, y)
	}
}

func TestRegistryLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", "endpoint")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	c.Add(1) // missing label value
}

// TestRegistryConcurrency hammers one registry from many goroutines
// while rendering concurrently; run under -race it proves the serve
// path is data-race free.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "", "endpoint")
	h := reg.Histogram("lat_seconds", "", nil, "endpoint")
	g := reg.Gauge("max_seconds", "", "endpoint")
	endpoints := []string{"predict", "estimate", "models", "jobs"}

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ep := endpoints[(w+i)%len(endpoints)]
				c.Add(1, ep)
				h.Observe(float64(i%7)/100, ep)
				g.Set(float64(i%5), ep)
				if i%50 == 0 {
					var sink bytes.Buffer
					if err := reg.WritePrometheus(&sink); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, ep := range endpoints {
		total += c.Value(ep)
	}
	if total != workers*perWorker {
		t.Fatalf("lost updates: total = %v, want %v", total, workers*perWorker)
	}
}
