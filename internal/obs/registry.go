package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricKind distinguishes the typed metric families.
type MetricKind uint8

// The metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// DefBuckets are default histogram bucket upper bounds in seconds,
// spanning sub-millisecond handlers to multi-second estimation jobs.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// series is one (family, label values) combination's state. All
// fields are guarded by the family's mutex.
type series struct {
	labelVals []string
	value     float64 // counter total or gauge value
	count     int64   // histogram observations
	sum       float64 // histogram sum
	max       float64 // largest observation (internal; not exposed in Prometheus text)
	buckets   []int64 // per-bucket (non-cumulative) observation counts
}

// family is one named metric with a fixed kind, label-key set and (for
// histograms) bucket layout. Series are kept sorted by label values so
// every render is byte-stable without map iteration.
type family struct {
	name      string
	help      string
	kind      MetricKind
	labelKeys []string
	buckets   []float64

	mu     sync.Mutex
	series []*series
}

// get returns the series for the label values, creating it in sorted
// position on first use. Series compare label by label, so label sets
// that differ in any value never share a series, and finding an
// existing one allocates nothing. The caller must hold fam.mu.
func (f *family) get(labelVals []string) *series {
	if len(labelVals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelKeys), len(labelVals)))
	}
	i := sort.Search(len(f.series), func(i int) bool {
		return slices.Compare(f.series[i].labelVals, labelVals) >= 0
	})
	if i < len(f.series) && slices.Equal(f.series[i].labelVals, labelVals) {
		return f.series[i]
	}
	s := &series{labelVals: append([]string(nil), labelVals...)}
	if f.kind == KindHistogram {
		s.buckets = make([]int64, len(f.buckets))
	}
	f.series = append(f.series, nil)
	copy(f.series[i+1:], f.series[i:])
	f.series[i] = s
	return s
}

// Registry is a typed metrics registry: named counter, gauge and
// histogram families with fixed label keys. It is safe for concurrent
// use and renders deterministically (families sorted by name, series
// by label values) — no wall clock, no randomness, no map iteration.
type Registry struct {
	mu   sync.Mutex
	fams []*family // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register finds or creates the named family, checking that redefinitions agree.
func (r *Registry) register(name, help string, kind MetricKind, buckets []float64, labelKeys []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.fams), func(i int) bool { return r.fams[i].name >= name })
	if i < len(r.fams) && r.fams[i].name == name {
		f := r.fams[i]
		if f.kind != kind || len(f.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different kind or label set", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labelKeys: append([]string(nil), labelKeys...)}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	r.fams = append(r.fams, nil)
	copy(r.fams[i+1:], r.fams[i:])
	r.fams[i] = f
	return f
}

// CounterVec is a counter family handle.
type CounterVec struct{ fam *family }

// GaugeVec is a gauge family handle.
type GaugeVec struct{ fam *family }

// HistogramVec is a histogram family handle.
type HistogramVec struct{ fam *family }

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, KindCounter, nil, labelKeys)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, KindGauge, nil, labelKeys)}
}

// Histogram registers (or finds) a fixed-bucket histogram family;
// nil buckets means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, KindHistogram, buckets, labelKeys)}
}

// Add increments the counter series by n (n must be >= 0).
func (v *CounterVec) Add(n float64, labelVals ...string) {
	f := v.fam
	f.mu.Lock()
	f.get(labelVals).value += n
	f.mu.Unlock()
}

// Value returns the counter series' total (0 if never touched).
func (v *CounterVec) Value(labelVals ...string) float64 {
	f := v.fam
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.get(labelVals).value
}

// Set sets the gauge series to x.
func (v *GaugeVec) Set(x float64, labelVals ...string) {
	f := v.fam
	f.mu.Lock()
	f.get(labelVals).value = x
	f.mu.Unlock()
}

// Observe records x into the histogram series.
func (v *HistogramVec) Observe(x float64, labelVals ...string) {
	f := v.fam
	f.mu.Lock()
	s := f.get(labelVals)
	s.count++
	s.sum += x
	if x > s.max {
		s.max = x
	}
	for i, ub := range f.buckets {
		if x <= ub {
			s.buckets[i]++
			break
		}
	}
	f.mu.Unlock()
}

// HistogramSample is one histogram series' aggregate state.
type HistogramSample struct {
	Labels []string
	Count  int64
	Sum    float64
	Max    float64
}

// Sample returns the histogram series' aggregates and whether it has
// recorded anything.
func (v *HistogramVec) Sample(labelVals ...string) (HistogramSample, bool) {
	f := v.fam
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.get(labelVals)
	return HistogramSample{
		Labels: s.labelVals, Count: s.count, Sum: s.sum, Max: s.max,
	}, s.count > 0
}

// LabelSets returns every series' label values in sorted order — the
// deterministic enumeration the report renderers iterate.
func (v *CounterVec) LabelSets() [][]string { return v.fam.labelSets() }

// LabelSets returns every series' label values in sorted order.
func (v *HistogramVec) LabelSets() [][]string { return v.fam.labelSets() }

func (f *family) labelSets() [][]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]string, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, append([]string(nil), s.labelVals...))
	}
	return out
}

// fnum renders a float the Prometheus way.
func fnum(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// writeLabels renders {k="v",...} for a series, with extra appended as
// a literal pre-rendered pair (used for histogram "le").
func writeLabels(b *strings.Builder, keys, vals []string, extra string) {
	if len(keys) == 0 && extra == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Output is byte-stable for a
// given registry state: families in name order, series in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		if len(f.series) == 0 {
			f.mu.Unlock()
			continue
		}
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			switch f.kind {
			case KindCounter, KindGauge:
				b.WriteString(f.name)
				writeLabels(&b, f.labelKeys, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(fnum(s.value))
				b.WriteByte('\n')
			case KindHistogram:
				cum := int64(0)
				for i, ub := range f.buckets {
					cum += s.buckets[i]
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labelKeys, s.labelVals, `le="`+fnum(ub)+`"`)
					b.WriteByte(' ')
					b.WriteString(strconv.FormatInt(cum, 10))
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, f.labelKeys, s.labelVals, `le="+Inf"`)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.count, 10))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labelKeys, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(fnum(s.sum))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labelKeys, s.labelVals, "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.count, 10))
				b.WriteByte('\n')
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}
