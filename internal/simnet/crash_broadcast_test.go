package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// TestCrashBroadcastDeterministicWithRendezvousWaiters is the golden
// guard for the crash handler's cond-broadcast loop in SetFaults: with
// three rendezvous senders parked mid-flight and a blocked receiver
// alive at crash time, two identical runs must produce byte-identical
// span transcripts and outcomes. If broadcast order ever started
// leaking into wakeup scheduling, the replayed transcript would
// diverge.
func TestCrashBroadcastDeterministicWithRendezvousWaiters(t *testing.T) {
	const (
		seed    = 42
		m       = 100000 // wire time ~1.04ms: in flight when the crash fires
		crashAt = time.Millisecond
	)

	runOnce := func() string {
		cl := testCluster(5)
		eng := vtime.NewEngine()
		// Rendezvous threshold 1: every send blocks until delivery.
		net, err := New(eng, cl, cluster.Ideal().RendezvousAt(1), seed)
		if err != nil {
			t.Fatal(err)
		}
		plan := &faults.Plan{Crashes: []faults.Crash{{Node: 4, At: crashAt}}}
		if err := net.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		net.SetObserver(tr)
		var transcript string

		// Three rendezvous senders target the crashing node.
		for src := 0; src < 3; src++ {
			src := src
			eng.Go(fmt.Sprintf("sender%d", src), func(p *vtime.Proc) {
				err := net.SendDeadline(p, src, 4, 7, make([]byte, m), 0)
				var ce *CrashError
				if !errors.As(err, &ce) {
					t.Errorf("sender %d: got %v, want CrashError", src, err)
				}
				if p.Now() <= crashAt {
					t.Errorf("sender %d finished at %v, want after the %v crash (it must be parked in rendezvous when the crash fires)", src, p.Now(), crashAt)
				}
				transcript += fmt.Sprintf("sender%d done at %v err=%v\n", src, p.Now(), err)
			})
		}
		// A blocked receiver on a healthy node: the crash broadcast wakes
		// it, it re-checks its predicate, re-parks, and times out.
		eng.Go("receiver3", func(p *vtime.Proc) {
			_, err := net.RecvDeadline(p, 3, AnySource, AnyTag, 2*time.Millisecond)
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Errorf("receiver: got %v, want TimeoutError", err)
			}
			transcript += fmt.Sprintf("receiver3 done at %v err=%v\n", p.Now(), err)
		})

		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		c := net.Counters()
		if c.BlackHole != 3 {
			t.Fatalf("BlackHole = %d, want 3 (all in-flight rendezvous messages)", c.BlackHole)
		}
		if c.Crashed != 1 {
			t.Fatalf("Crashed = %d, want 1", c.Crashed)
		}
		transcript += fmt.Sprintf("counters %+v\n", c)
		for _, sp := range tr.Spans() {
			transcript += fmt.Sprintf("%+v\n", sp)
		}
		return transcript
	}

	first := runOnce()
	if first == "" {
		t.Fatal("empty transcript")
	}
	for i := 0; i < 3; i++ {
		if again := runOnce(); again != first {
			t.Fatalf("replay %d diverged from first run:\n--- first ---\n%s--- replay ---\n%s", i, first, again)
		}
	}
}
