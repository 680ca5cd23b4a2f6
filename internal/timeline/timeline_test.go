package timeline

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
)

func traceCollective(t *testing.T, n int, body func(r *mpi.Rank)) []obs.Span {
	t.Helper()
	tr := obs.NewTrace()
	cfg := mpi.Config{
		Cluster: cluster.Homogeneous(n,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 5e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: cluster.Ideal(),
		Seed:    1,
		Obs:     tr,
	}
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		r.HardSync()
		body(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Spans()
}

func TestLogOrdersEachLifecycle(t *testing.T) {
	spans := traceCollective(t, 4, func(r *mpi.Rank) {
		blocks := make([][]byte, 4)
		for i := range blocks {
			blocks[i] = make([]byte, 1000)
		}
		r.Scatter(mpi.Linear, 0, blocks)
	})
	lines := Log(spans)
	if len(lines) != 12 {
		t.Fatalf("log has %d lines, want 3 messages × 4 steps:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	steps := map[string][]string{} // flow → steps in log order
	prev := time.Duration(-1)
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 4 {
			t.Fatalf("malformed line %q", l)
		}
		at, err := time.ParseDuration(f[0])
		if err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if at < prev {
			t.Fatalf("log not in time order at %q:\n%s", l, strings.Join(lines, "\n"))
		}
		prev = at
		if !strings.HasPrefix(f[2], "0→") || f[3] != "1000B" {
			t.Fatalf("scatter messages come from the root with 1000 bytes: %q", l)
		}
		steps[f[2]] = append(steps[f[2]], f[1])
	}
	want := "send-start inject deliver recv-done"
	for _, flow := range []string{"0→1", "0→2", "0→3"} {
		if got := strings.Join(steps[flow], " "); got != want {
			t.Fatalf("flow %s steps %q, want %q", flow, got, want)
		}
	}
}

func TestLogMarksEscalatedInject(t *testing.T) {
	spans := []obs.Span{
		{Cat: obs.CatMessage, Name: "send", Start: 0, End: 10, Src: 1, Dst: 0, Bytes: 64},
		{Cat: obs.CatFault, Name: "escalation", Start: 10, End: 10},
		{Cat: obs.CatMessage, Name: "send", Start: 0, End: 10, Src: 2, Dst: 0, Bytes: 64},
	}
	got := strings.Join(Log(spans), "\n")
	want := strings.Join([]string{
		"          0s send-start  1→0  64B",
		"          0s send-start  2→0  64B",
		"        10ns inject      1→0  64B ESC",
		"        10ns inject      2→0  64B",
	}, "\n")
	if got != want {
		t.Fatalf("log:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderShowsSerializedRootAndParallelWires(t *testing.T) {
	spans := traceCollective(t, 4, func(r *mpi.Rank) {
		blocks := make([][]byte, 4)
		for i := range blocks {
			blocks[i] = make([]byte, 20000)
		}
		r.Scatter(mpi.Linear, 0, blocks)
	})
	out := Render(spans, 4, 60)
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "S") {
		t.Fatalf("root lane should show send CPU:\n%s", out)
	}
	for _, lane := range lines[1:4] {
		if !strings.Contains(lane, "~") || !strings.Contains(lane, "r") {
			t.Fatalf("leaf lanes should show wire + receive:\n%s", out)
		}
		if strings.Contains(lane, "S") {
			t.Fatalf("leaves of a scatter never send:\n%s", out)
		}
	}
	if !strings.Contains(out, "S=send CPU") {
		t.Fatal("legend missing")
	}
}

func TestRenderEmpty(t *testing.T) {
	if !strings.Contains(Render(nil, 4, 40), "no traffic") {
		t.Fatal("empty render should say so")
	}
}

func TestRenderWidthClamp(t *testing.T) {
	spans := traceCollective(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, make([]byte, 100))
		} else {
			r.Recv(0, 0)
		}
	})
	out := Render(spans, 2, 1)
	if len(strings.Split(out, "\n")) < 3 {
		t.Fatal("width should be clamped")
	}
}
