package commperf

import (
	"reflect"
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
		if kind == ModelHetHockney && !reflect.DeepEqual(est.Hockney, est.HetHockney.Averaged()) {
			t.Fatalf("%v: Hockney %+v is not the pairwise average", kind, est.Hockney)
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

func TestDetectGatherIrregularityAtMostOneBase(t *testing.T) {
	// Regression: DetectGatherIrregularity used to silently ignore all
	// but the first EstimateOptions value. It takes Estimate's options
	// now, and two bases must still fail.
	sys := testSystem()
	a, b := WithEstimateOptions(fastOpt()), WithEstimateOptions(fastOpt())
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

// A negative message size is refused up front with an error naming the
// option, for every family that reads it and for the grouped path: no
// experiment runs and no span is traced. Zero still selects the 32 KiB
// default.
func TestWithMsgSizeNegativeRefusedUpFront(t *testing.T) {
	cases := []struct {
		name string
		kind ModelKind
		opts []EstimateOption
	}{
		{"lmo", ModelLMO, nil},
		{"lmo5", ModelLMOOriginal, nil},
		{"logp", ModelLogP, nil},
		{"grouped", ModelLMO, []EstimateOption{WithLogicalGroups()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTrace()
			opts := append(c.opts, WithEstimateOptions(fastOpt()), WithMsgSize(-1), WithObserver(tr))
			est, err := testSystem().Estimate(c.kind, opts...)
			if err == nil || !strings.Contains(err.Error(), "MsgSize") {
				t.Fatalf("WithMsgSize(-1): error %v, want one naming MsgSize", err)
			}
			if est.Report.Experiments != 0 || est.Report.Cost != 0 || len(tr.Spans()) != 0 {
				t.Fatalf("WithMsgSize(-1) simulated before refusing: report %+v, %d spans", est.Report, len(tr.Spans()))
			}
		})
	}
	t.Run("zero is the default", func(t *testing.T) {
		zero, err := testSystem().Estimate(ModelLogP, WithEstimateOptions(fastOpt()), WithMsgSize(0))
		if err != nil {
			t.Fatal(err)
		}
		def, err := testSystem().Estimate(ModelLogP, WithEstimateOptions(fastOpt()), WithMsgSize(32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if *zero.LogGP != *def.LogGP {
			t.Fatalf("WithMsgSize(0) estimated LogGP %+v, WithMsgSize(32 KiB) %+v", *zero.LogGP, *def.LogGP)
		}
	})
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
