package commperf

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/topo"
)

// -update regenerates the golden files under testdata/ from the
// current kernel. The committed goldens were produced by the
// pre-optimization event kernel, so a passing run proves the
// allocation-free fast path reproduces every simulated timestamp,
// counter and estimated parameter. The trace goldens hold that
// kernel's message transcripts in the canonical form timeline.Log
// renders from the message spans: no message tags, and the steps of
// one instant sorted by text, since spans do not record the emission
// order within an instant. A tag or same-instant reordering that
// matters moves a timestamp or a counter through RNG draw order or
// mailbox matching, which the goldens pin.
var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenScenario fixes every input of a simulation run: cluster size,
// TCP profile, seed and fault plan.
type goldenScenario struct {
	name  string
	nodes int
	prof  func() *cluster.TCPProfile
	seed  int64
	plan  *faults.Plan
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{name: "mixed-lam-6", nodes: 6, prof: cluster.LAM, seed: 3},
		{name: "rendezvous-lam-4", nodes: 4,
			prof: func() *cluster.TCPProfile { return cluster.LAM().RendezvousAt(32 << 10) }, seed: 5},
		{name: "faults-demo-8", nodes: 8, prof: cluster.LAM, seed: 9, plan: faults.Demo(8)},
	}
}

// goldenWorkload exercises every hot path of the simulator: binomial
// scatter (tree sends), linear gather through the irregular region
// (escalations, many-sender mailbox matching), and a ring exchange
// large enough to take the rendezvous path when the profile enables one.
func goldenWorkload(r *mpi.Rank) {
	r.HardSync()
	blocks := make([][]byte, r.Size())
	for i := range blocks {
		blocks[i] = make([]byte, 4<<10)
	}
	r.Scatter(mpi.Binomial, 0, blocks)
	r.HardSync()
	r.Gather(mpi.Linear, 0, make([]byte, 48<<10))
	r.HardSync()
	next := (r.Rank() + 1) % r.Size()
	prev := (r.Rank() + r.Size() - 1) % r.Size()
	r.Send(next, 7, make([]byte, 64<<10))
	r.Recv(prev, 7)
	r.HardSync()
}

// runGoldenScenario executes the scenario and renders its observable
// behaviour as canonical text: a header with the duration and counters
// and, when tr is non-nil, the message lifecycle log rendered from the
// message spans tr records. An untraced run renders the header alone,
// which must equal the traced run's (TestTracingDoesNotPerturb).
func runGoldenScenario(t *testing.T, sc goldenScenario, tr *obs.Trace) string {
	t.Helper()
	return runGoldenScenarioOn(t, sc, tr, cluster.Table1().Prefix(sc.nodes))
}

func runGoldenScenarioOn(t *testing.T, sc goldenScenario, tr *obs.Trace, cl *cluster.Cluster) string {
	t.Helper()
	res, err := mpi.Run(mpi.Config{
		Cluster: cl,
		Profile: sc.prof(),
		Seed:    sc.seed,
		Faults:  sc.plan,
		Obs:     tr,
	}, goldenWorkload)
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", sc.name)
	fmt.Fprintf(&b, "duration %d\n", int64(res.Duration))
	c := res.Net
	fmt.Fprintf(&b, "counters messages=%d bytes=%d escalations=%d serialized=%d lost=%d stalled=%d blackhole=%d crashed=%d\n",
		c.Messages, c.Bytes, c.Escalations, c.Serialized, c.Lost, int64(c.Stalled), c.BlackHole, c.Crashed)
	if tr == nil {
		return b.String()
	}
	lines := timeline.Log(tr.Spans())
	fmt.Fprintf(&b, "trace %d events\n", len(lines))
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// renderLMO formats every estimated parameter of the extended LMO
// model at full float64 precision. A non-nil tr records the estimation
// narrative; the parameters must come out identical either way.
func renderLMO(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	lmo, rep, err := estimate.LMOX(mpi.Config{
		Cluster: cluster.Table1().Prefix(5),
		Profile: cluster.LAM(),
		Seed:    7,
	}, estimate.Options{Parallel: true, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lmo estimate table1:5 lam seed=7\n")
	fmt.Fprintf(&b, "cost %d\n", int64(rep.Cost))
	for i, c := range lmo.C {
		fmt.Fprintf(&b, "C[%d] %.17g\n", i, c)
	}
	for i, tv := range lmo.T {
		fmt.Fprintf(&b, "T[%d] %.17g\n", i, tv)
	}
	for i := range lmo.L {
		for j := range lmo.L[i] {
			if i == j {
				continue
			}
			fmt.Fprintf(&b, "L[%d][%d] %.17g Beta[%d][%d] %.17g\n", i, j, lmo.L[i][j], i, j, lmo.Beta[i][j])
		}
	}
	return b.String()
}

// renderPLogP formats PLogP estimates at full float64 precision: every
// knot of g, o_s and o_r, L, and the report's cost and counts. Three
// platforms: Table I under LAM and under MPICH, and a homogeneous
// 5-node cluster whose 0<->1 link loses 45% of its messages, where
// rounds exhaust their budget, retry and stay non-converged.
func renderPLogP(t *testing.T) string {
	t.Helper()
	lossy := mpi.Config{
		Cluster: cluster.Homogeneous(5,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: cluster.Ideal(),
		Seed:    1,
		Faults: &faults.Plan{Loss: []faults.LinkLoss{
			{Src: 0, Dst: 1, Prob: 0.45, RTO: 3 * time.Millisecond, MaxRetr: 1},
			{Src: 1, Dst: 0, Prob: 0.45, RTO: 3 * time.Millisecond, MaxRetr: 1},
		}},
	}
	cases := []struct {
		name string
		cfg  mpi.Config
		opt  estimate.Options
	}{
		{"table1 lam seed=1", mpi.Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1}, estimate.Options{}},
		{"table1 mpich seed=3", mpi.Config{Cluster: cluster.Table1(), Profile: cluster.MPICH(), Seed: 3}, estimate.Options{}},
		{"homogeneous:5 ideal seed=1 loss0<->1=0.45 maxreps=12 retries=1", lossy,
			estimate.Options{Mpib: mpib.Options{MaxReps: 12, Retries: 1}}},
	}
	var b strings.Builder
	for _, c := range cases {
		p, rep, err := estimate.PLogP(c.cfg, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "plogp estimate %s\n", c.name)
		fmt.Fprintf(&b, "cost %d experiments %d repetitions %d retries %d nonconverged %d\n",
			int64(rep.Cost), rep.Experiments, rep.Repetitions, rep.Retries, rep.NonConverged)
		fmt.Fprintf(&b, "L %.17g\n", p.L)
		for _, f := range []struct {
			name string
			pw   *stats.PWLinear
		}{{"g", p.G}, {"os", p.OS}, {"or", p.OR}} {
			for k := 0; k < f.pw.NumKnots(); k++ {
				x, y := f.pw.Knot(k)
				fmt.Fprintf(&b, "%s(%.17g) %.17g\n", f.name, x, y)
			}
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverges from %s;\nthe event kernel changed observable simulation behaviour.\ngot:\n%s\nwant:\n%s",
			path, clipGolden(got), clipGolden(string(want)))
	}
}

// clipGolden keeps failure output readable for multi-thousand-line traces.
func clipGolden(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + fmt.Sprintf("\n... (%d bytes total)", len(s))
}

// TestGoldenTraces locks the simulator's observable behaviour —
// timestamps, lifecycle steps, counters — to the committed goldens
// produced before the allocation-free fast path was introduced.
func TestGoldenTraces(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			checkGolden(t, "golden_trace_"+sc.name+".txt", runGoldenScenario(t, sc, obs.NewTrace()))
		})
	}
}

// TestGoldenLMOEstimate locks the estimated extended-LMO parameters to
// the pre-optimization values at full precision.
func TestGoldenLMOEstimate(t *testing.T) {
	checkGolden(t, "golden_lmo.txt", renderLMO(t, nil))
}

// TestGoldenPLogPEstimate locks PLogP's adaptively refined knots, its
// latency and its report to committed values at full precision.
func TestGoldenPLogPEstimate(t *testing.T) {
	checkGolden(t, "golden_plogp.txt", renderPLogP(t))
}

// TestSingleSwitchTopologyGoldenIdentical guards the fabric threading
// through the simulator: attaching an explicit single-switch topology
// (a switch graph with no fabric edges) must replay the committed
// goldens byte for byte — no wire-phase arithmetic and no RNG
// consumption order may change when the fabric is inert.
func TestSingleSwitchTopologyGoldenIdentical(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cl := cluster.Table1().Prefix(sc.nodes)
			cl.Topo = topo.SingleSwitch(sc.nodes)
			checkGolden(t, "golden_trace_"+sc.name+".txt", runGoldenScenarioOn(t, sc, obs.NewTrace(), cl))
		})
	}
}

// TestDeterministicReruns verifies that a fixed (cluster, profile,
// seed, fault plan) scenario produces identical traces, counters and
// estimates when run twice in one process. The CI race job runs this
// under -race, standing guard over the vtime kernel's coroutine
// switches and its pooled workers, which the second run reuses.
func TestDeterministicReruns(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			a := runGoldenScenario(t, sc, obs.NewTrace())
			b := runGoldenScenario(t, sc, obs.NewTrace())
			if a != b {
				t.Errorf("two runs of %s diverge:\n--- first ---\n%s\n--- second ---\n%s",
					sc.name, clipGolden(a), clipGolden(b))
			}
		})
	}
	t.Run("lmo-estimate", func(t *testing.T) {
		if a, b := renderLMO(t, nil), renderLMO(t, nil); a != b {
			t.Errorf("two estimations diverge:\n--- first ---\n%s\n--- second ---\n%s", a, b)
		}
	})
}

// TestTracingDoesNotPerturb is the observability layer's determinism
// gate: enabling the span tracer must not move a single virtual
// timestamp, counter or estimated parameter. Each scenario runs once
// untraced and once traced. The untraced header (duration and
// counters) must equal the traced one, and the traced transcript must
// equal the golden, which the pre-optimization kernel produced
// without a span tracer.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			plain := runGoldenScenario(t, sc, nil)
			tr := obs.NewTrace()
			traced := runGoldenScenario(t, sc, tr)
			if !strings.HasPrefix(traced, plain) {
				t.Errorf("tracing perturbed %s:\n--- untraced ---\n%s\n--- traced ---\n%s",
					sc.name, plain, clipGolden(traced))
			}
			checkGolden(t, "golden_trace_"+sc.name+".txt", traced)
			if len(tr.Spans()) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if tr.Counter("vtime.events").Value() == 0 {
				t.Fatal("traced run counted no events")
			}
		})
	}
	t.Run("lmo-estimate", func(t *testing.T) {
		plain := renderLMO(t, nil)
		tr := obs.NewTrace()
		traced := renderLMO(t, tr)
		if plain != traced {
			t.Errorf("tracing perturbed the LMO estimate:\n--- untraced ---\n%s\n--- traced ---\n%s",
				plain, traced)
		}
		var phases, solves int
		for _, sp := range tr.Spans() {
			if sp.Cat == obs.CatEstimate {
				if strings.HasPrefix(sp.Name, "phase:") {
					phases++
				}
				if strings.HasPrefix(sp.Name, "solve:") {
					solves++
				}
			}
		}
		if phases < 2 || solves == 0 {
			t.Fatalf("estimation narrative incomplete: %d phases, %d solves", phases, solves)
		}
	})
}
