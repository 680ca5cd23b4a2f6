package obs

import (
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsDisabledAndSafe(t *testing.T) {
	var tr *Trace
	id := tr.Begin(CatCollective, "scatter", 0, 0)
	if id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	tr.End(id, time.Second)
	tr.Emit(CatMessage, "send", 1, 0, time.Millisecond)
	tr.EmitMsg(CatMessage, "wire", 1, 0, time.Millisecond, 0, 1, 64)
	tr.Point(CatFault, "crash", 2, time.Second)
	tr.Annotate(id, 1, 2, 3)
	if c := tr.Counter("x"); c != nil {
		t.Fatalf("nil trace Counter = %v, want nil", c)
	}
	var c *Counter
	c.Add(5) // must not panic
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	if tr.Spans() != nil || tr.Counters() != nil {
		t.Fatal("nil trace is not empty")
	}
}

func TestSpanParenting(t *testing.T) {
	tr := NewTrace()
	outer := tr.Begin(CatCollective, "scatter:linear", 0, 0)
	msg := tr.EmitMsg(CatMessage, "send", 0, 10, 20, 0, 1, 64)
	inner := tr.Begin(CatMeasure, "measure", 0, 20)
	deep := tr.Emit(CatMessage, "wire", 0, 25, 30)
	tr.End(inner, 40)
	after := tr.Emit(CatMessage, "recv", 0, 45, 50)
	tr.End(outer, 60)
	other := tr.Emit(CatMessage, "send", 3, 5, 15) // different track: no parent

	spans := tr.Spans()
	get := func(id SpanID) Span { return spans[id-1] }
	if got := get(msg).Parent; got != outer {
		t.Fatalf("msg parent = %d, want %d", got, outer)
	}
	if got := get(inner).Parent; got != outer {
		t.Fatalf("inner parent = %d, want %d", got, outer)
	}
	if got := get(deep).Parent; got != inner {
		t.Fatalf("deep parent = %d, want %d", got, inner)
	}
	if got := get(after).Parent; got != outer {
		t.Fatalf("after-End parent = %d, want %d (inner must be popped)", got, outer)
	}
	if got := get(other).Parent; got != 0 {
		t.Fatalf("other-track parent = %d, want 0", got)
	}
	if get(outer).End != 60 || get(outer).Start != 0 {
		t.Fatalf("outer span times = [%v, %v]", get(outer).Start, get(outer).End)
	}
	if s := get(msg); s.Src != 0 || s.Dst != 1 || s.Bytes != 64 {
		t.Fatalf("msg attrs = %+v", s)
	}
}

// TestGlobalTrackAndMaxTrack nests spans on the global track as on any
// other, and keeps the track of a point emitted past every open one.
func TestGlobalTrackAndMaxTrack(t *testing.T) {
	tr := NewTrace()
	g := tr.Begin(CatEstimate, "phase", GlobalTrack, 0)
	child := tr.Emit(CatEstimate, "round", GlobalTrack, 1, 2)
	tr.End(g, 3)
	if got := tr.Spans()[child-1].Parent; got != g {
		t.Fatalf("global-track child parent = %d, want %d", got, g)
	}
	crash := tr.Point(CatFault, "crash", 7, 1)
	if sp := tr.Spans()[crash-1]; sp.Track != 7 || sp.Parent != 0 {
		t.Fatalf("point on track 7 recorded as %+v", sp)
	}
}

func TestTraceCounters(t *testing.T) {
	tr := NewTrace()
	a := tr.Counter("vtime.events")
	b := tr.Counter("alpha")
	if tr.Counter("vtime.events") != a {
		t.Fatal("Counter is not idempotent")
	}
	a.Add(3)
	a.Add(2)
	b.Add(1)
	got := tr.Counters()
	if len(got) != 2 || got[0].Name != "alpha" || got[0].Value != 1 ||
		got[1].Name != "vtime.events" || got[1].Value != 5 {
		t.Fatalf("Counters() = %+v", got)
	}
}

func TestAnnotatePartial(t *testing.T) {
	tr := NewTrace()
	id := tr.Emit(CatMeasure, "measure", 0, 0, 1)
	tr.Annotate(id, -1, -1, 42)
	sp := tr.Spans()[id-1]
	if sp.Src != 0 || sp.Dst != 0 || sp.Bytes != 42 {
		t.Fatalf("Annotate partial: %+v", sp)
	}
}

func TestFlameSummary(t *testing.T) {
	tr := NewTrace()
	outer := tr.Begin(CatCollective, "scatter:binomial", 0, 0)
	tr.Emit(CatMessage, "send", 0, 0, 40*time.Microsecond)
	tr.Emit(CatMessage, "send", 0, 40*time.Microsecond, 70*time.Microsecond)
	tr.End(outer, 100*time.Microsecond)
	tr.Point(CatFault, "escalation", 1, 50*time.Microsecond)

	s := FlameSummary(tr)
	for _, want := range []string{"collective scatter:binomial", "message send", "fault escalation", "█"} {
		if !strings.Contains(s, want) {
			t.Fatalf("flame summary missing %q:\n%s", want, s)
		}
	}
	// scatter total 100µs, self 100-70=30µs.
	if !strings.Contains(s, "30.0µs") {
		t.Fatalf("flame summary self time wrong:\n%s", s)
	}
	if got := FlameSummary(nil); !strings.Contains(got, "no spans") {
		t.Fatalf("nil flame summary = %q", got)
	}
}
