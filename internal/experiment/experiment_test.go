package experiment

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/textplot"
)

// smallCfg is a reduced 8-node heterogeneous configuration keeping the
// runners fast in tests while preserving the phenomena (heterogeneity,
// LAM irregularities).
func smallCfg() Config {
	// The Table 1 prefix keeps the full cluster's arrangement: slow
	// Opterons/Celeron at binomial leaf positions (1, 3, 5), fast
	// processors on the relay chain 0→4→6→7.
	return Config{
		Cluster:  cluster.Table1().Prefix(8),
		Profile:  cluster.LAM(),
		Seed:     7,
		Root:     0,
		Sizes:    []int{1 << 10, 8 << 10, 32 << 10, 64 << 10, 128 << 10, 200 << 10},
		ObsReps:  6,
		Est:      estimate.Options{Parallel: true},
		ScanReps: 12,
	}
}

func TestFig1ObservationBetweenSerialAndParallel(t *testing.T) {
	rep, err := Fig1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) []float64 {
		for _, s := range rep.Series {
			if s.Name == name {
				ys := make([]float64, len(s.Points))
				for i, p := range s.Points {
					ys[i] = p.Y
				}
				return ys
			}
		}
		t.Fatalf("series %q missing", name)
		return nil
	}
	obs := get("observed")
	ser := get("het-Hockney serial")
	par := get("het-Hockney parallel")
	// The paper's point: serial is pessimistic, parallel optimistic.
	for i := range obs {
		if !(par[i] < obs[i] && obs[i] < ser[i]) {
			t.Fatalf("point %d: want parallel (%v) < observed (%v) < serial (%v)", i, par[i], obs[i], ser[i])
		}
	}
	if len(rep.Notes) == 0 {
		t.Fatal("fig1 should carry a note")
	}
}

func TestFig2TreeTable(t *testing.T) {
	rep, err := Fig2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 9 {
		t.Fatalf("fig2 table shape: %+v", rep.Tables)
	}
}

func TestFig3HetBeatsHom(t *testing.T) {
	cfg := smallCfg()
	rep, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The note embeds the errors; recompute from series instead.
	var obs, hom, het []float64
	for _, s := range rep.Series {
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
			ys[i] = p.Y
		}
		switch s.Name {
		case "observed":
			obs = ys
		case "hom-Hockney (eq 3)":
			hom = ys
		case "het-Hockney (eq 1)":
			het = ys
		}
	}
	if meanAbsRelError(obs, het) >= meanAbsRelError(obs, hom) {
		t.Fatalf("het (%v) should beat hom (%v) on binomial scatter",
			meanAbsRelError(obs, het), meanAbsRelError(obs, hom))
	}
}

func TestFig4LMOMostAccurate(t *testing.T) {
	rep, err := Fig4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]float64{}
	var obs []float64
	for _, s := range rep.Series {
		if s.Name == "observed" {
			for _, p := range s.Points {
				obs = append(obs, p.Y)
			}
		}
	}
	for _, s := range rep.Series {
		if s.Name == "observed" {
			continue
		}
		var ys []float64
		for _, p := range s.Points {
			ys = append(ys, p.Y)
		}
		errs[s.Name] = meanAbsRelError(obs, ys)
	}
	lmo := errs["LMO (eq 4)"]
	if lmo >= errs["het-Hockney"] || lmo >= errs["LogGP"] {
		t.Fatalf("LMO scatter error %v should beat het-Hockney %v and LogGP %v",
			lmo, errs["het-Hockney"], errs["LogGP"])
	}
	if lmo > 0.3 {
		t.Fatalf("LMO scatter error %v too large", lmo)
	}
}

func TestFig5LMOMostAccurateOnGather(t *testing.T) {
	rep, err := Fig5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var obs []float64
	errs := map[string]float64{}
	for _, s := range rep.Series {
		if s.Name == "observed (mean)" {
			for _, p := range s.Points {
				obs = append(obs, p.Y)
			}
		}
	}
	for _, s := range rep.Series {
		if strings.HasPrefix(s.Name, "observed") || strings.HasPrefix(s.Name, "LMO band") {
			continue
		}
		var ys []float64
		for _, p := range s.Points {
			ys = append(ys, p.Y)
		}
		errs[s.Name] = meanAbsRelError(obs, ys)
	}
	lmo := errs["LMO (eq 5)"]
	for name, e := range errs {
		if name == "LMO (eq 5)" {
			continue
		}
		if lmo >= e {
			t.Fatalf("LMO gather error %v should beat %s (%v)", lmo, name, e)
		}
	}
}

func TestFig6LMODecidesAtLeastAsWell(t *testing.T) {
	rep, err := Fig6(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) == 0 {
		t.Fatal("fig6 must report decision quality")
	}
	// Parse the decision counts out of the algorithm-choices table: the
	// observed faster algorithm at 100–200KB must be linear (the paper's
	// setting), and LMO must agree everywhere.
	var rows [][]string
	for _, tb := range rep.Tables {
		if tb.Caption == "algorithm choices" {
			rows = tb.Rows
		}
	}
	if rows == nil {
		t.Fatal("missing algorithm-choices table")
	}
	lmoCorrect := 0
	for _, row := range rows[1:] {
		if row[1] != "linear" {
			t.Fatalf("at %s the observed faster alg is %s; expected linear for 100–200KB", row[0], row[1])
		}
		if row[3] == row[1] {
			lmoCorrect++
		}
	}
	if lmoCorrect != len(rows)-1 {
		t.Fatalf("LMO correct on %d/%d sizes", lmoCorrect, len(rows)-1)
	}
}

func TestFig7SpeedupInIrregularRegion(t *testing.T) {
	rep, err := Fig7(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var native, opt []float64
	for _, s := range rep.Series {
		var ys []float64
		for _, p := range s.Points {
			ys = append(ys, p.Y)
		}
		switch s.Name {
		case "native gather (mean)":
			native = ys
		case "optimized gather (mean)":
			opt = ys
		}
	}
	if len(native) == 0 || len(opt) == 0 {
		t.Fatal("fig7 series missing")
	}
	better := 0
	for i := range native {
		if opt[i] < native[i] {
			better++
		}
	}
	if better*2 < len(native) {
		t.Fatalf("optimized gather better at only %d/%d sizes", better, len(native))
	}
}

func TestTable1Report(t *testing.T) {
	rep, err := Table1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 9 {
		t.Fatalf("rows = %d, want header + 8 nodes", len(rep.Tables[0].Rows))
	}
}

func TestTable2GatherSteeperAboveM2(t *testing.T) {
	rep, err := Table2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("table2 should carry formulas and numbers")
	}
	// In the numeric table, LMO's gather at 128K must exceed its scatter
	// at 128K (sum vs max branch).
	var lmoRow []string
	num := rep.Tables[1].Rows
	for _, row := range num {
		if row[0] == "LMO" {
			lmoRow = row
		}
	}
	if lmoRow == nil {
		t.Fatal("missing LMO row")
	}
	var scat, gath float64
	if _, err := sscanSeconds(lmoRow[5], &scat); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanSeconds(lmoRow[6], &gath); err != nil {
		t.Fatal(err)
	}
	if gath <= scat {
		t.Fatalf("LMO gather@128K (%v) should exceed scatter@128K (%v)", gath, scat)
	}
}

func TestEstCostReport(t *testing.T) {
	rep, err := EstCost(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 4 {
		t.Fatalf("estcost rows = %d", len(rep.Tables[0].Rows))
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "speedup") {
		t.Fatalf("estcost notes = %v", rep.Notes)
	}
}

func TestIrregReportBothProfiles(t *testing.T) {
	cfg := smallCfg()
	rep, err := Irreg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + LAM + MPICH", len(rows))
	}
	if rows[1][2] == rows[2][2] {
		t.Fatalf("LAM and MPICH should detect different regions: %v vs %v", rows[1][2], rows[2][2])
	}
}

func TestRunnersAndLookup(t *testing.T) {
	rs := Runners()
	if len(rs) != 20 {
		t.Fatalf("runners = %d, want 20", len(rs))
	}
	if Lookup("fig4") == nil || Lookup("nope") != nil {
		t.Fatal("lookup broken")
	}
	ids := map[string]bool{}
	for _, r := range rs {
		if ids[r.ID] {
			t.Fatalf("duplicate runner id %s", r.ID)
		}
		ids[r.ID] = true
	}
}

func TestRenderAndCSV(t *testing.T) {
	rep, err := Fig2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, rep)
	if !strings.Contains(buf.String(), "Fig 2") {
		t.Fatal("render missing title")
	}
	// Table-only reports produce no CSV.
	tableOnly, err := Table1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, tableOnly); err != nil {
		t.Fatal(err)
	}
	if csv.Len() != 0 {
		t.Fatal("table-only report should emit no CSV")
	}
	// A report with series produces a header and rows.
	withSeries := &Report{Series: []textplot.Series{
		{Name: "a", Points: []textplot.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
		{Name: "b,comma", Points: []textplot.Point{{X: 1, Y: 5}}},
	}}
	csv.Reset()
	if err := WriteCSV(&csv, withSeries); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %v", lines)
	}
	if lines[0] != `x,a,"b,comma"` {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestObserveShapes(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{1 << 10, 4 << 10}
	cfg.ObsReps = 3
	obs, err := Observe(cfg, models.CollScatter, mpi.Linear)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Mean) != 2 || obs.Mean[0] <= 0 || obs.Mean[1] <= obs.Mean[0] {
		t.Fatalf("observation = %+v", obs)
	}
	const ulp = 1e-12
	if obs.Max[0] < obs.Mean[0]-ulp {
		t.Fatal("the worst repetition is below the mean")
	}
}

// sscanSeconds parses a "0.0123s" cell.
func sscanSeconds(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	*out = v
	return 1, err
}

func TestAblationReport(t *testing.T) {
	rep, err := Ablation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("ablation tables = %d", len(rep.Tables))
	}
	model := rep.Tables[0].Rows
	if len(model) != 3 {
		t.Fatalf("model ablation rows = %d", len(model))
	}
	// The extended model's scatter error must beat the original's.
	var origErr, extErr float64
	if _, err := sscanPercent(model[1][1], &origErr); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanPercent(model[2][1], &extErr); err != nil {
		t.Fatal(err)
	}
	if extErr > origErr {
		t.Fatalf("extended error %v%% should not exceed original %v%%", extErr, origErr)
	}
	// TCP factors: gather must show larger irregularity contributions
	// than scatter at some size.
	sub := rep.Tables[1].Rows
	sawBigGatherFactor := false
	for _, row := range sub[1:] {
		var g float64
		if _, err := sscanFactor(row[2], &g); err != nil {
			t.Fatal(err)
		}
		if g > 2 {
			sawBigGatherFactor = true
		}
	}
	if !sawBigGatherFactor {
		t.Fatal("gather TCP factor should exceed 2x somewhere in the irregular region")
	}
	// Protocol ablation: under rendezvous, eq (4) must under-predict
	// (negative error) at large sizes while the Hockney serial sum fits
	// far better there.
	proto := rep.Tables[2].Rows
	last := proto[len(proto)-1]
	var eq4Rdv, serialRdv float64
	if _, err := sscanPercent(strings.TrimPrefix(last[2], "+"), &eq4Rdv); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanPercent(strings.TrimPrefix(last[3], "+"), &serialRdv); err != nil {
		t.Fatal(err)
	}
	if eq4Rdv >= 0 {
		t.Fatalf("eq(4) should under-predict rendezvous scatter: %v%%", eq4Rdv)
	}
	if math.Abs(serialRdv) >= math.Abs(eq4Rdv) {
		t.Fatalf("Hockney serial (%v%%) should fit rendezvous better than eq(4) (%v%%)", serialRdv, eq4Rdv)
	}
}

func TestAlgZooReport(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{1 << 10, 32 << 10, 200 << 10}
	rep, err := AlgZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 8 { // 4 observed + 4 predicted
		t.Fatalf("series = %d, want 8", len(rep.Series))
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every pick's penalty must stay sane (< 2x of the fastest).
	for _, row := range rows[1:] {
		var pen float64
		if _, err := sscanFactor(row[3], &pen); err != nil {
			t.Fatal(err)
		}
		if pen > 2 {
			t.Fatalf("LMO pick penalty %vx at %s", pen, row[0])
		}
	}
}

func TestTimingReport(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{8 << 10, 64 << 10}
	cfg.ObsReps = 4
	rep, err := Timing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 4 {
		t.Fatalf("series = %d", len(rep.Series))
	}
	var scRoot, scMax []float64
	for _, s := range rep.Series {
		var ys []float64
		for _, p := range s.Points {
			ys = append(ys, p.Y)
		}
		switch s.Name {
		case "scatter root-timing":
			scRoot = ys
		case "scatter makespan":
			scMax = ys
		}
	}
	for i := range scRoot {
		if scRoot[i] >= scMax[i] {
			t.Fatalf("scatter root timing (%v) must undershoot makespan (%v)", scRoot[i], scMax[i])
		}
	}
}

// sscanPercent parses "12.3%".
func sscanPercent(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	*out = v
	return 1, err
}

// sscanFactor parses "1.23×".
func sscanFactor(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "×"), 64)
	*out = v
	return 1, err
}

func TestPrecisionReport(t *testing.T) {
	rep, err := Precision(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want header + 4 targets", len(rows))
	}
	// Round-trips converge at the minimum regardless of target; the
	// escalating gather needs (weakly) more repetitions as the target
	// tightens.
	var prevGather float64
	for i := 1; i < len(rows); i++ { // loosest → tightest
		var rt, g float64
		if _, err := fmtAtoi(rows[i][1], &rt); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtAtoi(rows[i][2], &g); err != nil {
			t.Fatal(err)
		}
		if rt != 8 {
			t.Fatalf("clean round-trip should converge at MinReps: %v", rows[i])
		}
		if g < prevGather {
			t.Fatalf("gather reps should not shrink as targets tighten: %v", rows)
		}
		prevGather = g
	}
	if prevGather <= 8 {
		t.Fatal("noisy gather should need more than the minimum repetitions")
	}
}

func TestScalingReport(t *testing.T) {
	cfg := smallCfg()
	rep, err := Scaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) < 4 { // header + n=4,6,8 at least
		t.Fatalf("rows = %d", len(rows))
	}
	// Costs and experiment counts must grow with n.
	var prevExp float64
	for _, row := range rows[1:] {
		var exp float64
		if _, err := fmtAtoi(row[1], &exp); err != nil {
			t.Fatal(err)
		}
		if exp <= prevExp {
			t.Fatalf("experiments should grow with n: %v", rows)
		}
		prevExp = exp
		var errPct float64
		if _, err := sscanPercent(row[4], &errPct); err != nil {
			t.Fatal(err)
		}
		if errPct > 40 {
			t.Fatalf("LMO error %v%% at %s nodes", errPct, row[0])
		}
	}
}

func fmtAtoi(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	*out = v
	return 1, err
}

func TestCollectivesReport(t *testing.T) {
	rep, err := Collectives(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 13 { // header + 6 ops × 2 sizes
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows[1:] {
		var rel float64
		if _, err := sscanPercent(row[4], &rel); err != nil {
			t.Fatal(err)
		}
		if rel > 40 {
			t.Fatalf("%s at %s: prediction off by %v%%", row[0], row[1], rel)
		}
	}
}

func TestTransferReport(t *testing.T) {
	rep, err := Transfer(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1][1] != "yes" || rows[2][1] != "no" {
		t.Fatalf("transfer verdicts = %v / %v", rows[1][1], rows[2][1])
	}
}

// End-to-end determinism: an entire figure (estimation + noisy
// observation) reruns bit-identically with the same seed.
func TestFigureDeterminism(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{8 << 10, 32 << 10}
	a, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatal("series count differs")
	}
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				t.Fatalf("series %q point %d differs: %v vs %v",
					a.Series[i].Name, j, a.Series[i].Points[j], b.Series[i].Points[j])
			}
		}
	}
}
