package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func buildTrace() *Trace {
	tr := NewTrace()
	coll := tr.Begin(CatCollective, "scatter:binomial", 0, 0)
	tr.EmitMsg(CatMessage, "send", 0, 0, 35*time.Microsecond, 0, 1, 1024)
	tr.EmitMsg(CatMessage, "wire", 1, 35*time.Microsecond, 90*time.Microsecond, 0, 1, 1024)
	tr.End(coll, 120*time.Microsecond)
	tr.Point(CatFault, "escalation", 1, 60*time.Microsecond)
	return tr
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(tr.Spans()) {
		t.Fatalf("JSONL has %d lines, want %d", n, len(tr.Spans()))
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Spans()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr.Spans())
	}
}

func TestJSONLRejectsBadCategory(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"id":1,"cat":"nope","name":"x","track":0,"start_ns":0,"end_ns":1}`))
	if err == nil || !strings.Contains(err.Error(), "unknown span category") {
		t.Fatalf("err = %v, want unknown-category error", err)
	}
}

// minimalChrome is the minimal trace_event schema chrome://tracing
// needs: every event has a name, a phase, numeric timestamps and
// pid/tid routing.
type minimalChrome struct {
	TraceEvents []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		Ts   *float64 `json:"ts"`
		Dur  float64  `json:"dur"`
		Pid  *int     `json:"pid"`
		Tid  *int     `json:"tid"`
	} `json:"traceEvents"`
}

func TestChromeTraceValidatesAgainstMinimalSchema(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, func(track int) string {
		if track == GlobalTrack {
			return "global"
		}
		return "rank"
	}); err != nil {
		t.Fatal(err)
	}
	var mt minimalChrome
	if err := json.Unmarshal(buf.Bytes(), &mt); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(mt.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var complete, instant, meta int
	for i, ev := range mt.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing ts/pid/tid: %+v", i, ev)
		}
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("complete event %d has dur %v", i, ev.Dur)
			}
		case "i":
			instant++
		case "M":
			meta++
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ev.Ph)
		}
		if *ev.Ts < 0 {
			t.Fatalf("event %d has negative ts", i)
		}
	}
	if complete != 3 || instant != 1 || meta == 0 {
		t.Fatalf("event mix: %d complete, %d instant, %d meta", complete, instant, meta)
	}
	// Timestamps are microseconds: the collective span starts at 0 and
	// the wire span at 35µs.
	found := false
	for _, ev := range mt.TraceEvents {
		if ev.Name == "wire" && *ev.Ts == 35 && ev.Dur == 55 {
			found = true
		}
	}
	if !found {
		t.Fatalf("wire span not exported with µs timestamps: %s", buf.String())
	}
}
