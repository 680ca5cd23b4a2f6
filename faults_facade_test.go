package commperf

import (
	"errors"
	"testing"
	"time"
)

func faultySystem(n int) *System {
	cl := Homogeneous(n,
		NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
		LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
	return NewSystem(cl, Ideal(), 1)
}

// TestSystemEstimateLMOUnderFaults is the acceptance scenario at the
// facade: with the reference fault plan installed, LMO estimation
// must complete without panic or deadlock and report how it degraded.
func TestSystemEstimateLMOUnderFaults(t *testing.T) {
	const n = 6
	sys := faultySystem(n).WithFaults(DemoFaults(n))
	if sys.Faults() == nil {
		t.Fatal("WithFaults did not install the plan")
	}
	est, err := sys.Estimate(ModelLMO, WithEstimateOptions(EstimateOptions{
		Parallel: true,
		Mpib:     MeasureOptions{OutlierMAD: 3, Retries: 2, MaxReps: 40},
	}))
	if err != nil {
		t.Fatalf("Estimate(ModelLMO) under the demo fault plan: %v", err)
	}
	lmo, rep := est.LMO, est.Report
	if rep.Experiments == 0 || rep.Cost <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Confidence) != n {
		t.Fatalf("Confidence has %d entries, want %d", len(rep.Confidence), n)
	}
	if pred, err := lmo.Predict(PredictQuery{Coll: CollScatter, Alg: Linear, N: n, M: 32 << 10}); err != nil || pred <= 0 {
		t.Fatalf("nonsense prediction %v (%v) from the fault-estimated model", pred, err)
	}
}

// TestSystemRunSurfacesCrash: a crashed non-root node turns into a
// typed CrashError from Run, not a hang.
func TestSystemRunSurfacesCrash(t *testing.T) {
	sys := faultySystem(4).WithFaults(&FaultPlan{
		Crashes: []Crash{{Node: 2, At: 100 * time.Microsecond}},
	})
	_, err := sys.Run(func(r *Rank) {
		r.Sleep(time.Millisecond)
		r.Gather(Linear, 0, make([]byte, 1<<10))
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a CrashError", err)
	}
	if len(ce.Nodes) != 1 || ce.Nodes[0] != 2 {
		t.Fatalf("crashed nodes = %v, want [2]", ce.Nodes)
	}
}

// TestSystemFaultDeterminism: the same system and plan reproduce the
// same injector activity and the same virtual duration.
func TestSystemFaultDeterminism(t *testing.T) {
	run := func() JobResult {
		sys := faultySystem(4).WithFaults(&FaultPlan{
			Loss: []LinkLoss{{Src: AnyNode, Dst: 0, Prob: 0.2, RTO: 5 * time.Millisecond}},
		})
		res, err := sys.Run(func(r *Rank) {
			for i := 0; i < 20; i++ {
				r.Gather(Linear, 0, make([]byte, 2<<10))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Faults != b.Faults {
		t.Fatalf("same seed diverged: %v/%+v vs %v/%+v", a.Duration, a.Faults, b.Duration, b.Faults)
	}
	if a.Faults.Lost == 0 {
		t.Fatal("20% loss over 20 gathers lost nothing")
	}
}
