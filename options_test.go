package commperf

import (
	"strings"
	"testing"
	"time"
)

// fastOpt keeps the estimation cheap and deterministic: pinned
// repetitions, default parallel schedule.
func fastOpt() EstimateOptions {
	o := EstimateOptions{Parallel: true}
	o.Mpib.MinReps, o.Mpib.MaxReps = 3, 3
	return o
}

func TestEstimateAllKinds(t *testing.T) {
	for _, kind := range ModelKinds() {
		sys := testSystem()
		est, err := sys.Estimate(kind, WithEstimateOptions(fastOpt()))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if est.Kind != kind {
			t.Fatalf("%v: kind = %v", kind, est.Kind)
		}
		if est.Predictor() == nil {
			t.Fatalf("%v: nil predictor", kind)
		}
		if est.Report.Experiments == 0 || est.Report.Cost <= 0 {
			t.Fatalf("%v: empty report %+v", kind, est.Report)
		}
	}
}

func TestEstimateUnknownKind(t *testing.T) {
	sys := testSystem()
	est, err := sys.Estimate(ModelKind(99))
	if err == nil {
		t.Fatal("unknown kind should error")
	}
	if est == nil {
		t.Fatal("Estimation must be non-nil even on error")
	}
	if !strings.Contains(ModelKind(99).String(), "99") {
		t.Fatalf("fallback String = %q", ModelKind(99))
	}
}

func TestPickOptRejectsMultipleOptions(t *testing.T) {
	// Regression: pickOpt used to silently ignore all but the first
	// EstimateOptions value. It must now refuse.
	sys := testSystem()
	a, b := fastOpt(), fastOpt()
	if _, _, err := sys.DetectGatherIrregularity(0, a, b); err == nil ||
		!strings.Contains(err.Error(), "at most one") {
		t.Fatalf("DetectGatherIrregularity with two options should error, got %v", err)
	}
}

func TestWithEstimateOptionsAtMostOnce(t *testing.T) {
	sys := testSystem()
	est, err := sys.Estimate(ModelHockney,
		WithEstimateOptions(fastOpt()), WithEstimateOptions(fastOpt()))
	if err == nil || !strings.Contains(err.Error(), "at most one") {
		t.Fatalf("double WithEstimateOptions should error, got %v", err)
	}
	if est == nil || est.Hockney != nil {
		t.Fatalf("errored estimation should carry no model: %+v", est)
	}
}

func TestFineGrainedOptionsOverrideBase(t *testing.T) {
	base := EstimateOptions{} // serial, unpinned reps
	cfg := estimateConfig{opt: EstimateOptions{Parallel: true}}
	for _, o := range []EstimateOption{
		WithEstimateOptions(base),
		WithSchedule(ScheduleParallel),
		WithReps(7, 9),
		WithConfidence(0.99, 0.01),
		WithMsgSize(8 << 10),
		WithTripletCoverage(2),
	} {
		o.applyEstimate(&cfg)
	}
	if cfg.err != nil {
		t.Fatal(cfg.err)
	}
	o := cfg.opt
	if !o.Parallel || o.Mpib.MinReps != 7 || o.Mpib.MaxReps != 9 ||
		o.Mpib.Confidence != 0.99 || o.Mpib.RelErr != 0.01 ||
		o.MsgSize != 8<<10 || o.TripletCoverage != 2 {
		t.Fatalf("resolved options = %+v", o)
	}
}

func TestWithObserverThreadsTraceThroughRun(t *testing.T) {
	sys := testSystem()
	tr := NewTrace()
	_, err := sys.Run(func(r *Rank) {
		blocks := make([][]byte, r.Size())
		for i := range blocks {
			blocks[i] = make([]byte, 512)
		}
		r.Scatter(Binomial, 0, blocks)
	}, WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var sawColl, sawMsg bool
	for _, sp := range spans {
		switch sp.Cat {
		case TraceCollective:
			if strings.HasPrefix(sp.Name, "scatter:") {
				sawColl = true
			}
		case TraceMessage:
			sawMsg = true
		}
	}
	if !sawColl || !sawMsg {
		t.Fatalf("missing span kinds: collective=%v message=%v", sawColl, sawMsg)
	}
}

func TestWithObserverThreadsTraceThroughEstimate(t *testing.T) {
	sys := testSystem()
	tr := NewTrace()
	est, err := sys.Estimate(ModelLMO,
		WithEstimateOptions(fastOpt()), WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if est.Trace != tr {
		t.Fatal("Estimation.Trace should be the attached observer")
	}
	var sawPhase, sawSolve bool
	for _, sp := range tr.Spans() {
		if sp.Cat == TraceEstimate {
			if strings.HasPrefix(sp.Name, "phase:") {
				sawPhase = true
			}
			if strings.HasPrefix(sp.Name, "solve:") {
				sawSolve = true
			}
		}
	}
	if !sawPhase || !sawSolve {
		t.Fatalf("estimation narrative incomplete: phase=%v solve=%v", sawPhase, sawSolve)
	}
}

func TestScheduleAndKindStrings(t *testing.T) {
	if ScheduleParallel.String() != "parallel" || ScheduleSerial.String() != "serial" {
		t.Fatal("schedule strings changed")
	}
	want := map[ModelKind]string{
		ModelLMO: "lmo", ModelLMOOriginal: "lmo5", ModelHetHockney: "hethockney",
		ModelHockney: "hockney", ModelLogP: "logp", ModelPLogP: "plogp",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestMeasureOptionsBaseAndOverride(t *testing.T) {
	sys := testSystem()
	var m Measurement
	_, err := sys.Run(func(r *Rank) {
		got := Measure(r, 0, func() {
			r.Barrier()
		}, WithMeasureOptions(MeasureOptions{MinReps: 9, MaxReps: 9}), WithReps(4, 4))
		if r.Rank() == 0 {
			m = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 4 {
		t.Fatalf("later WithReps should override the base: N = %d", m.N)
	}
	if m.Mean <= 0 || m.Mean > time.Second.Seconds() {
		t.Fatalf("measurement = %+v", m)
	}
}
