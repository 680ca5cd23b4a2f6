package commperf

import (
	"bytes"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/stats"
)

// tuneModel hand-builds an LMO model (flat parameters plus a gather
// irregularity region) so the facade tests skip the estimation phase.
func tuneModel(n int) *LMO {
	x := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		x.C[i] = 5e-5
		x.T[i] = 4e-9
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	x.Gather = GatherEmpirical{
		M1: 4 << 10, M2: 65 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 7}, {Value: 0.25, Count: 3}},
		ProbLow:  0.1, ProbHigh: 0.5,
	}
	return x
}

func TestSystemTune(t *testing.T) {
	sys := NewSystem(Table1().Prefix(8), LAM(), 7)
	tr := NewTrace()
	tn, err := sys.Tune(
		WithTuneModel(tuneModel(8)),
		WithTuneMsgSizes(1<<10, 8<<10, 32<<10),
		WithTopK(3),
		WithObserver(tr),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Table == nil || tn.Table.Version != TunedTableVersion {
		t.Fatalf("table missing or unversioned: %+v", tn.Table)
	}
	ops := map[TunedOp]int{}
	for _, r := range tn.Table.Rules {
		ops[r.Op]++
	}
	if ops[OpScatter] == 0 || ops[OpGather] == 0 {
		t.Fatalf("table should cover scatter and gather: %v", ops)
	}
	if tn.Candidates == 0 || tn.Simulated == 0 {
		t.Fatalf("no work accounted: %+v", tn)
	}
	if tn.Agreement < 0 || tn.Agreement > 1 {
		t.Fatalf("agreement out of range: %v", tn.Agreement)
	}
	if tn.Report.Experiments != 0 {
		t.Fatalf("WithTuneModel must skip estimation, got report %+v", tn.Report)
	}
	if tn.Trace != tr || len(tr.Spans()) == 0 {
		t.Fatal("observer should carry the winning shape's replay spans")
	}
	// The replay is one measurement of one repetition; a measurement
	// span records its repetition count in Bytes.
	var reps []int
	for _, sp := range tr.Spans() {
		if sp.Cat == obs.CatMeasure {
			reps = append(reps, sp.Bytes)
		}
	}
	if len(reps) != 1 || reps[0] != 1 {
		t.Fatalf("replay measurements ran %v repetitions, want one measurement of 1", reps)
	}

	// Decision tables are deterministic: a second tune of the same
	// system serializes byte-identically.
	tn2, err := sys.Tune(WithTuneModel(tuneModel(8)), WithTuneMsgSizes(1<<10, 8<<10, 32<<10), WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := tn.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tn2.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("tuning is not deterministic:\n%s\nvs\n%s", b1, b2)
	}

	// The table round-trips through the public envelope API and drives
	// a Tuner.
	tbl, err := UnmarshalTunedTable(b1)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTunerFromTable(tbl, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(func(r *Rank) {
		got := tuner.Gather(r, 0, bytes.Repeat([]byte{byte(r.Rank() + 1)}, 8<<10))
		if r.Rank() == 0 && got[7][0] != 8 {
			panic("gather data corrupted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Fatal("run recorded no virtual time")
	}
	if tuner.Stats().TableHits == 0 {
		t.Fatal("tuner should have consulted the table")
	}
}

func TestSystemTuneOptions(t *testing.T) {
	sys := NewSystem(Table1().Prefix(6), LAM(), 3)
	model := tuneModel(6)

	// Restricting ops and candidates narrows the table accordingly.
	tn, err := sys.Tune(
		WithTuneModel(model),
		WithTuneOps(OpGather),
		WithTuneMsgSizes(2<<10, 16<<10),
		WithCandidates(TuneCandidate{Alg: Linear}, TuneCandidate{Alg: Linear, Segment: 4 << 10}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tn.Table.Rules {
		if r.Op != OpGather {
			t.Fatalf("ops were restricted to gather, got %+v", r)
		}
		if r.Alg != "linear" {
			t.Fatalf("candidates were restricted to linear, got %+v", r)
		}
	}
	if len(tn.Cells) != 2 {
		t.Fatalf("one cell per (op, size): %d", len(tn.Cells))
	}
}

func TestSystemTuneEstimatesWhenNoModelGiven(t *testing.T) {
	if testing.Short() {
		t.Skip("estimation-backed tune is slow")
	}
	sys := testSystem() // 4 homogeneous nodes, ideal profile
	tn, err := sys.Tune(WithTuneMsgSizes(1<<10, 8<<10), WithTopK(2))
	if err != nil {
		t.Fatal(err)
	}
	if tn.Report.Experiments == 0 {
		t.Fatal("tune without a model should estimate one and report the cost")
	}
	if tn.Table == nil || len(tn.Table.Rules) == 0 {
		t.Fatal("no decision table produced")
	}
}

// TestSystemTuneSimulatesUnderFaults: a system's fault plan reaches the
// simulator that validates the tuner's candidates, so a straggling
// root slows every simulated winner.
func TestSystemTuneSimulatesUnderFaults(t *testing.T) {
	sys := NewSystem(Table1().Prefix(8), LAM(), 1)
	opts := []TuneOption{WithTuneModel(tuneModel(8)), WithTuneMsgSizes(16 << 10), WithTuneOps(OpScatter), WithTopK(1)}
	clean, err := sys.Tune(opts...)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := sys.WithFaults(&FaultPlan{Stragglers: []Straggler{{Node: 0, CPUX: 4}}}).Tune(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Cells) == 0 || len(slow.Cells) != len(clean.Cells) {
		t.Fatalf("cells: clean %d, faulty %d", len(clean.Cells), len(slow.Cells))
	}
	for i, c := range clean.Cells {
		if f := slow.Cells[i].Winner.SimulatedS; f <= c.Winner.SimulatedS {
			t.Fatalf("%s %d B: straggling root %.6f s, clean %.6f s; the fault plan did not reach the simulator",
				c.Op, c.M, f, c.Winner.SimulatedS)
		}
	}
}
