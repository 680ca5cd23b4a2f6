// Package obs is the deterministic observability layer of the
// reproduction: a span-based tracer keyed to virtual time and a typed
// metrics registry, with exporters to JSONL, Chrome trace_event,
// Prometheus text exposition and textplot-style flame summaries.
//
// The package never reads a clock and never draws randomness — every
// timestamp is supplied by the caller, in the caller's time base
// (virtual time for the simulation layers, wall-clock offsets for the
// campaign scheduler). A *Trace therefore records exactly what the
// instrumented code observed, and instrumenting a deterministic
// simulation cannot perturb it: tracing appends to a buffer and does
// nothing else. All Trace methods are nil-safe — a nil *Trace is the
// disabled tracer, and every method returns immediately — so hook
// sites guard with a single pointer comparison and stay
// allocation-free on the disabled path.
//
// A Trace belongs to one simulation universe (or one campaign) and is
// not safe for concurrent use; the simulation kernel runs exactly one
// goroutine at a time, which is precisely the discipline a Trace
// needs. The metrics Registry, in contrast, is fully synchronized: it
// backs the serving layer, where HTTP handlers race.
package obs

import (
	"sync/atomic"
	"time"
)

// GlobalTrack is the track index of spans that belong to no particular
// node or rank (estimation phases, engine-level spans).
const GlobalTrack = -1

// Category classifies a span by the subsystem that emitted it.
type Category uint8

// Span categories, one per instrumented layer.
const (
	CatKernel     Category = iota // vtime engine (event dispatch)
	CatMessage                    // simnet message lifecycle phases
	CatCollective                 // mpi collective operations, per rank
	CatMeasure                    // mpib adaptive measurements
	CatEstimate                   // estimation phases and equation solves
	CatTask                       // campaign tasks (wall-clock offsets)
	CatFault                      // fault-injection incidents
)

// String names the category (used by the exporters).
func (c Category) String() string {
	switch c {
	case CatKernel:
		return "kernel"
	case CatMessage:
		return "message"
	case CatCollective:
		return "collective"
	case CatMeasure:
		return "measure"
	case CatEstimate:
		return "estimate"
	case CatTask:
		return "task"
	case CatFault:
		return "fault"
	default:
		return "unknown"
	}
}

// SpanID identifies a span within its Trace; 0 means "no span" and is
// what every span-producing method returns on a nil Trace, so callers
// can thread IDs around without caring whether tracing is on.
type SpanID int32

// Span is one recorded interval (or instant, when Start == End) on a
// track. Parent links spans into trees: a message's wire span is a
// child of the collective-phase span open on the same track, which
// makes a scatter root's serialized sends visible as nested spans.
type Span struct {
	ID     SpanID
	Parent SpanID
	Cat    Category
	Name   string
	Track  int
	Start  time.Duration
	End    time.Duration
	Src    int
	Dst    int
	Bytes  int
}

// Duration is the span's extent (zero for point events).
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Counter is a monotonically increasing count. It is shared between
// the tracer (hot-path event counting) and the Registry; Add is an
// atomic increment so the serving layer can read concurrently.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe: hot paths may cache a nil
// pointer when tracing is disabled and still call through it — but
// the intended pattern is to guard with a pointer check, which costs
// one compare and no call.
//
//lmovet:hotpath
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterValue is one named counter's value in a Trace snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// traceCounter pairs a registered counter with its name. Counters are
// kept in registration order; Counters() sorts for stable export.
type traceCounter struct {
	name string
	c    *Counter
}

// Trace records spans for one simulation universe. The zero value is
// ready to use; a nil *Trace is the disabled tracer.
type Trace struct {
	spans    []Span
	stacks   [][]SpanID // open-span stack per track; index track+1 (GlobalTrack at 0)
	counters []traceCounter
}

// NewTrace returns an empty, enabled trace.
func NewTrace() *Trace { return &Trace{} }

// Len returns the number of recorded spans (0 for nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in emission order. The slice is the
// trace's backing store; callers must not mutate it.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// stackFor returns the open-span stack of the track, growing the table
// as new tracks appear.
func (t *Trace) stackFor(track int) *[]SpanID {
	i := track + 1
	if i < 0 {
		i = 0
	}
	for len(t.stacks) <= i {
		t.stacks = append(t.stacks, nil)
	}
	return &t.stacks[i]
}

// top returns the innermost open span of the track (0 if none).
func (t *Trace) top(track int) SpanID {
	i := track + 1
	if i < 0 || i >= len(t.stacks) {
		return 0
	}
	s := t.stacks[i]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// push records a new span and returns its ID. parent 0 means "parent
// is whatever is open on the track".
func (t *Trace) push(cat Category, name string, track int, start, end time.Duration) SpanID {
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: t.top(track), Cat: cat, Name: name,
		Track: track, Start: start, End: end,
	})
	return id
}

// Begin opens a span on the track at virtual time at. Spans on one
// track must close in LIFO order (End pops defensively otherwise).
func (t *Trace) Begin(cat Category, name string, track int, at time.Duration) SpanID {
	if t == nil {
		return 0
	}
	id := t.push(cat, name, track, at, at)
	s := t.stackFor(track)
	*s = append(*s, id)
	return id
}

// End closes the span at virtual time at and pops it from its track's
// open stack. A zero id (disabled tracing) is a no-op.
func (t *Trace) End(id SpanID, at time.Duration) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	sp.End = at
	s := t.stackFor(sp.Track)
	// Defensive pop-until-found: mismatched Begin/End nesting drops the
	// abandoned inner spans rather than corrupting parenting.
	for n := len(*s); n > 0; n-- {
		top := (*s)[n-1]
		*s = (*s)[:n-1]
		if top == id {
			break
		}
	}
}

// Emit records a completed span [start, end] on the track, parented to
// the track's currently open span. Returns its ID (0 when disabled).
func (t *Trace) Emit(cat Category, name string, track int, start, end time.Duration) SpanID {
	if t == nil {
		return 0
	}
	return t.push(cat, name, track, start, end)
}

// EmitMsg is Emit with message attributes (source, destination, size).
func (t *Trace) EmitMsg(cat Category, name string, track int, start, end time.Duration, src, dst, bytes int) SpanID {
	if t == nil {
		return 0
	}
	id := t.push(cat, name, track, start, end)
	sp := &t.spans[id-1]
	sp.Src, sp.Dst, sp.Bytes = src, dst, bytes
	return id
}

// Point records an instant event on the track.
func (t *Trace) Point(cat Category, name string, track int, at time.Duration) SpanID {
	if t == nil {
		return 0
	}
	return t.push(cat, name, track, at, at)
}

// Annotate attaches message attributes to an existing span; a zero id
// is a no-op. bytes < 0 leaves the field unchanged (likewise src/dst),
// so callers can set a single attribute.
func (t *Trace) Annotate(id SpanID, src, dst, bytes int) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	if src >= 0 {
		sp.Src = src
	}
	if dst >= 0 {
		sp.Dst = dst
	}
	if bytes >= 0 {
		sp.Bytes = bytes
	}
}

// Counter returns the named trace counter, registering it on first
// use. Returns nil on a nil trace — and Counter.Add(…) on a nil
// counter is a no-op — so hook installation needs no special-casing.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	for _, tc := range t.counters {
		if tc.name == name {
			return tc.c
		}
	}
	c := &Counter{}
	t.counters = append(t.counters, traceCounter{name: name, c: c})
	return c
}

// Counters returns a snapshot of the trace counters in sorted name
// order (deterministic for export).
func (t *Trace) Counters() []CounterValue {
	if t == nil {
		return nil
	}
	out := make([]CounterValue, 0, len(t.counters))
	for _, tc := range t.counters {
		out = append(out, CounterValue{Name: tc.name, Value: tc.c.Value()})
	}
	// Insertion sort: the counter set is tiny and fixed.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// MaxTrack returns the largest track index seen (GlobalTrack when the
// trace is empty).
func (t *Trace) MaxTrack() int {
	max := GlobalTrack
	if t == nil {
		return max
	}
	for i := range t.spans {
		if t.spans[i].Track > max {
			max = t.spans[i].Track
		}
	}
	return max
}
