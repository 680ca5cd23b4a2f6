package simnet

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vtime"
)

func testCluster(n int) *cluster.Cluster {
	return cluster.Homogeneous(n,
		cluster.NodeSpec{C: 50 * time.Microsecond, T: 5e-9},
		cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
}

// wireTime returns the uncontended wire time for m bytes from src to
// dst: L_ij + m/β_ij plus any TCP leap, plus — on a multi-switch
// topology — the store-and-forward traversal of the fabric route: the
// closed form the tests check simulated transfers against.
func (n *Network) wireTime(src, dst, m int) time.Duration {
	l := n.cl.Links[src][dst]
	base := l.L + time.Duration(float64(m)/l.Beta*float64(time.Second))
	base += n.prof.LeapExtra(m)
	if n.topo != nil {
		// Per-hop, truncating each transfer exactly as the simulation
		// does, so predicted and simulated times agree to the nanosecond.
		rt := n.topo.Route(src, dst)
		for _, de := range rt.Hops {
			spec := n.topo.EdgeSpec(de)
			base += spec.L + time.Duration(float64(m)/spec.Beta*float64(time.Second))
		}
	}
	return base
}

// run builds an engine+network, runs body inside it and returns the
// network for counter inspection.
func run(t *testing.T, cl *cluster.Cluster, prof *cluster.TCPProfile, seed int64, body func(net *Network, eng *vtime.Engine)) *Network {
	t.Helper()
	eng := vtime.NewEngine()
	net, err := New(eng, cl, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	body(net, eng)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPointToPointTiming(t *testing.T) {
	cl := testCluster(2)
	const m = 10000
	var sendDone, recvDone time.Duration
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("sender", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 7, make([]byte, m))
			sendDone = p.Now()
		})
		eng.Go("receiver", func(p *vtime.Proc) {
			net.Recv(p, 1, 0, 7)
			recvDone = p.Now()
		})
	})
	// Sender frees after C + M*t = 50µs + 50µs = 100µs.
	wantSend := 100 * time.Microsecond
	if sendDone != wantSend {
		t.Fatalf("send done at %v, want %v", sendDone, wantSend)
	}
	// Receiver done after send + wire (40µs + 100µs) + recv CPU (100µs).
	wantRecv := wantSend + 140*time.Microsecond + 100*time.Microsecond
	if recvDone != wantRecv {
		t.Fatalf("recv done at %v, want %v", recvDone, wantRecv)
	}
}

func TestPayloadIntegrityAndMetadata(t *testing.T) {
	cl := testCluster(2)
	payload := []byte("the quick brown fox")
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s", func(p *vtime.Proc) { net.Send(p, 0, 1, 42, payload) })
		eng.Go("r", func(p *vtime.Proc) {
			msg := net.Recv(p, 1, AnySource, AnyTag)
			if !bytes.Equal(msg.Payload, payload) {
				t.Error("payload corrupted")
			}
			if msg.Src != 0 || msg.Dst != 1 || msg.Tag != 42 {
				t.Errorf("metadata = %+v", msg)
			}
			if !(msg.SentAt <= msg.InjectedAt && msg.InjectedAt <= msg.ArrivedAt) {
				t.Errorf("timestamps out of order: %+v", msg)
			}
		})
	})
}

func TestTagAndSourceMatching(t *testing.T) {
	cl := testCluster(3)
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s1", func(p *vtime.Proc) { net.Send(p, 0, 2, 1, []byte("from0")) })
		eng.Go("s2", func(p *vtime.Proc) {
			p.Sleep(time.Millisecond)
			net.Send(p, 1, 2, 2, []byte("from1"))
		})
		eng.Go("r", func(p *vtime.Proc) {
			// Ask for tag 2 first even though tag 1 arrives earlier.
			m2 := net.Recv(p, 2, AnySource, 2)
			if string(m2.Payload) != "from1" {
				t.Errorf("tag match failed: %q", m2.Payload)
			}
			m1 := net.Recv(p, 2, 0, AnyTag)
			if string(m1.Payload) != "from0" {
				t.Errorf("source match failed: %q", m1.Payload)
			}
		})
	})
}

// TestMailboxFIFOOrder guards the MPI non-overtaking guarantee against
// mailbox-deletion regressions: two messages with the same (src, tag)
// must be received in send order even after an unrelated message,
// delivered between them, has been plucked from the middle of the
// mailbox. A swap-with-last delete would pass every single-message test
// and still break this one.
func TestMailboxFIFOOrder(t *testing.T) {
	cl := testCluster(3)
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s0", func(p *vtime.Proc) {
			net.Send(p, 0, 2, 1, []byte("first"))
			p.Sleep(2 * time.Millisecond)
			net.Send(p, 0, 2, 1, []byte("second"))
		})
		eng.Go("s1", func(p *vtime.Proc) {
			p.Sleep(time.Millisecond)
			net.Send(p, 1, 2, 9, []byte("interloper"))
		})
		eng.Go("r", func(p *vtime.Proc) {
			// Let all three land so the mailbox holds, in delivery
			// order: first, interloper, second.
			p.Sleep(10 * time.Millisecond)
			if got := net.boxes[2].pending; got != 3 {
				t.Errorf("pending = %d, want 3", got)
			}
			// Remove the middle message first, exercising the in-place
			// delete with live neighbours on both sides.
			if m := net.Recv(p, 2, 1, 9); string(m.Payload) != "interloper" {
				t.Errorf("tag-9 receive got %q", m.Payload)
			}
			a := net.Recv(p, 2, 0, 1)
			b := net.Recv(p, 2, 0, 1)
			if string(a.Payload) != "first" || string(b.Payload) != "second" {
				t.Errorf("same-(src,tag) messages overtook: got %q then %q", a.Payload, b.Payload)
			}
		})
	})
}

// Linear scatter through the simulator should exhibit the paper's
// structure (eq 4): serialized root processing + parallel transfers.
func TestLinearScatterStructure(t *testing.T) {
	const n, m = 8, 20000
	cl := testCluster(n)
	var latest time.Duration
	net := run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("root", func(p *vtime.Proc) {
			for i := 1; i < n; i++ {
				net.Send(p, 0, i, 0, make([]byte, m))
			}
		})
		for i := 1; i < n; i++ {
			i := i
			eng.Go("leaf", func(p *vtime.Proc) {
				net.Recv(p, i, 0, 0)
				if p.Now() > latest {
					latest = p.Now()
				}
			})
		}
	})
	sc := net.SenderCost(0, m)
	wire := net.wireTime(0, 1, m)
	rc := net.ReceiverCost(1, m)
	want := 7*sc + wire + rc // eq (4) with identical receivers
	if latest != want {
		t.Fatalf("scatter completion %v, want %v (= 7·%v + %v + %v)", latest, want, sc, wire, rc)
	}
}

// Small-message gather: transfers overlap (max behaviour), so total is
// root-side serial processing plus one wire, not a sum of wires.
func TestGatherSmallMessagesParallel(t *testing.T) {
	const n, m = 8, 1000 // 1 KB < M1
	cl := testCluster(n)
	var done time.Duration
	net := run(t, cl, cluster.LAM(), 1, func(net *Network, eng *vtime.Engine) {
		for i := 1; i < n; i++ {
			i := i
			eng.Go("leaf", func(p *vtime.Proc) { net.Send(p, i, 0, 0, make([]byte, m)) })
		}
		eng.Go("root", func(p *vtime.Proc) {
			for i := 1; i < n; i++ {
				net.Recv(p, 0, AnySource, 0)
			}
			done = p.Now()
		})
	})
	sc := net.SenderCost(1, m)
	wire := net.wireTime(1, 0, m)
	rc := net.ReceiverCost(0, m)
	want := sc + wire + 7*rc // parallel wires, serialized root processing
	if done != want {
		t.Fatalf("gather completion %v, want %v", done, want)
	}
	if c := net.Counters(); c.Escalations != 0 || c.Serialized != 0 {
		t.Fatalf("small gather should be regular, counters = %+v", c)
	}
}

// Large-message gather: ingress serialization makes wires sum.
func TestGatherLargeMessagesSerialized(t *testing.T) {
	const n = 5
	m := 100 << 10 // 100 KB > M2 (65 KB) for LAM
	cl := testCluster(n)
	var done time.Duration
	net := run(t, cl, cluster.LAM(), 1, func(net *Network, eng *vtime.Engine) {
		for i := 1; i < n; i++ {
			i := i
			eng.Go("leaf", func(p *vtime.Proc) { net.Send(p, i, 0, 0, make([]byte, m)) })
		}
		eng.Go("root", func(p *vtime.Proc) {
			for i := 1; i < n; i++ {
				net.Recv(p, 0, AnySource, 0)
			}
			done = p.Now()
		})
	})
	transfer := time.Duration(float64(m) / cl.Links[1][0].Beta * float64(time.Second))
	leap := cluster.LAM().LeapExtra(m)
	sc := net.SenderCost(1, m)
	rc := net.ReceiverCost(0, m)
	// All four senders inject at sc; port serializes the transfers; the
	// last arrival is sc + L + 4·(transfer+leap); root then still has
	// its last receive processing outstanding.
	want := sc + cl.Links[1][0].L + 4*(transfer+leap) + rc
	if done != want {
		t.Fatalf("large gather completion %v, want %v", done, want)
	}
	if c := net.Counters(); c.Serialized != 3 {
		t.Fatalf("serialized = %d, want 3", c.Serialized)
	}
}

// Medium-message concurrent flows into one node escalate with the
// profile's probability; a lone flow never escalates.
func TestEscalationsOnlyUnderContention(t *testing.T) {
	m := 30 << 10 // inside (4 KB, 65 KB)
	cl := testCluster(9)

	lone := run(t, cl, cluster.LAM(), 7, func(net *Network, eng *vtime.Engine) {
		eng.Go("s", func(p *vtime.Proc) { net.Send(p, 1, 0, 0, make([]byte, m)) })
		eng.Go("r", func(p *vtime.Proc) { net.Recv(p, 0, AnySource, 0) })
	})
	if lone.Counters().Escalations != 0 {
		t.Fatal("single flow must never escalate")
	}

	// Many rounds of 8-way contention: expect a healthy number of
	// escalations (per-flow prob ≈ 0.045 at 30 KB, 7 contending flows,
	// 200 rounds → ≈ 60 expected).
	contended := run(t, cl, cluster.LAM(), 7, func(net *Network, eng *vtime.Engine) {
		for i := 1; i < 9; i++ {
			i := i
			eng.Go("s", func(p *vtime.Proc) {
				for r := 0; r < 200; r++ {
					net.Send(p, i, 0, r, make([]byte, m))
					p.Sleep(300 * time.Millisecond) // start rounds together
				}
			})
		}
		eng.Go("r", func(p *vtime.Proc) {
			for k := 0; k < 8*200; k++ {
				net.Recv(p, 0, AnySource, AnyTag)
			}
		})
	})
	esc := contended.Counters().Escalations
	if esc < 20 {
		t.Fatalf("escalations = %d, want a substantial number", esc)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	m := 30 << 10
	cl := testCluster(6)
	runOnce := func(seed int64) (time.Duration, Counters) {
		var done time.Duration
		net := run(t, cl, cluster.LAM(), seed, func(net *Network, eng *vtime.Engine) {
			for i := 1; i < 6; i++ {
				i := i
				eng.Go("s", func(p *vtime.Proc) {
					for r := 0; r < 10; r++ {
						net.Send(p, i, 0, r, make([]byte, m))
						p.Sleep(time.Second)
					}
				})
			}
			eng.Go("r", func(p *vtime.Proc) {
				for k := 0; k < 50; k++ {
					net.Recv(p, 0, AnySource, AnyTag)
				}
				done = p.Now()
			})
		})
		return done, net.Counters()
	}
	d1, c1 := runOnce(123)
	d2, c2 := runOnce(123)
	if d1 != d2 || c1 != c2 {
		t.Fatalf("same seed diverged: %v/%+v vs %v/%+v", d1, c1, d2, c2)
	}
	d3, _ := runOnce(456)
	if d3 == d1 {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

// TestProbeAndPending follows a message through its destination's
// mailbox: a receive's match finds it by source and tag only from its
// arrival until a receive takes it, and the pending count follows.
func TestProbeAndPending(t *testing.T) {
	cl := testCluster(2)
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		probe := func(src, tag int) bool {
			_, _, m := net.boxes[1].find(src, tag)
			return m != nil
		}
		eng.Go("s", func(p *vtime.Proc) { net.Send(p, 0, 1, 5, []byte("x")) })
		eng.Go("r", func(p *vtime.Proc) {
			if probe(0, 5) {
				t.Error("probe before arrival should be false")
			}
			p.Sleep(time.Second)
			if !probe(0, 5) || probe(0, 6) || !probe(AnySource, AnyTag) {
				t.Error("probe after arrival mismatched")
			}
			if net.boxes[1].pending != 1 {
				t.Errorf("pending = %d", net.boxes[1].pending)
			}
			net.Recv(p, 1, 0, 5)
			if net.boxes[1].pending != 0 || probe(AnySource, AnyTag) {
				t.Error("the message should be gone after the receive")
			}
		})
	})
}

func TestSendValidation(t *testing.T) {
	cl := testCluster(2)
	eng := vtime.NewEngine()
	net, err := New(eng, cl, cluster.Ideal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("bad", func(p *vtime.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("self-send should panic")
			}
		}()
		net.Send(p, 0, 0, 0, nil)
	})
	_ = eng.Run() // the panic happens inside the proc goroutine; recovered above
}

func TestNewRejectsBadCluster(t *testing.T) {
	eng := vtime.NewEngine()
	if _, err := New(eng, &cluster.Cluster{}, nil, 1); err == nil {
		t.Fatal("invalid cluster should be rejected")
	}
}

// Reset refuses a cluster of another shape or an invalid one, and
// returns the headers of messages nobody received to the freelist.
func TestResetShapesAndDrains(t *testing.T) {
	net := run(t, testCluster(3), cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("sender", func(p *vtime.Proc) {
			net.Send(p, 0, 2, 1, nil)
			net.Send(p, 0, 2, 2, nil)
		})
	})
	if net.boxes[2].pending != 2 {
		t.Fatalf("%d messages pending at node 2, want 2", net.boxes[2].pending)
	}
	if err := net.Reset(testCluster(4), nil, 1); err == nil {
		t.Fatal("Reset to a 4-node cluster succeeded on a 3-node network")
	}
	if err := net.Reset(&cluster.Cluster{}, nil, 1); err == nil {
		t.Fatal("Reset to an invalid cluster succeeded")
	}
	free := len(net.free)
	if err := net.Reset(testCluster(3), cluster.LAM(), 2); err != nil {
		t.Fatal(err)
	}
	if net.boxes[2].pending != 0 || len(net.free) != free+2 || net.Counters() != (Counters{}) || net.prof.Name != cluster.LAM().Name {
		t.Fatalf("after Reset: %d pending, %d free headers (want %d), counters %+v, profile %s",
			net.boxes[2].pending, len(net.free), free+2, net.Counters(), net.prof.Name)
	}
}

func TestHeterogeneousCosts(t *testing.T) {
	cl := cluster.Table1()
	eng := vtime.NewEngine()
	net, err := New(eng, cl, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Node costs must track the spec.
	for i, nd := range cl.Nodes {
		want := nd.C + time.Duration(float64(1000)*nd.T*float64(time.Second))
		if got := net.SenderCost(i, 1000); got != want {
			t.Fatalf("node %d cost %v, want %v", i, got, want)
		}
	}
	// Wire time uses the pair's link.
	w := net.wireTime(0, 1, 9000)
	want := cl.Links[0][1].L + time.Duration(9000.0/cl.Links[0][1].Beta*float64(time.Second))
	if w != want {
		t.Fatalf("wire = %v, want %v", w, want)
	}
}

func TestObserverSeesMessageLifecycle(t *testing.T) {
	cl := testCluster(2)
	eng := vtime.NewEngine()
	net, err := New(eng, cl, cluster.Ideal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	net.SetObserver(tr)
	var got Message
	eng.Go("s", func(p *vtime.Proc) { net.Send(p, 0, 1, 5, make([]byte, 100)) })
	eng.Go("r", func(p *vtime.Proc) { got = net.Recv(p, 1, 0, 5) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3 (%+v)", len(spans), spans)
	}
	// The phases tile the message's life: send [SentAt, InjectedAt] on
	// the source's track, wire [InjectedAt, ArrivedAt] and recv
	// [ArrivedAt, recv-done] on the destination's.
	want := []struct {
		name       string
		track      int
		start, end time.Duration
	}{
		{"send", 0, got.SentAt, got.InjectedAt},
		{"wire", 1, got.InjectedAt, got.ArrivedAt},
		{"recv", 1, got.ArrivedAt, eng.Now()},
	}
	for i, sp := range spans {
		w := want[i]
		if sp.Cat != obs.CatMessage || sp.Name != w.name || sp.Track != w.track {
			t.Fatalf("span %d = %s/%s on track %d, want message/%s on %d", i, sp.Cat, sp.Name, sp.Track, w.name, w.track)
		}
		if sp.Src != 0 || sp.Dst != 1 || sp.Bytes != 100 {
			t.Fatalf("span %d fields = %+v", i, sp)
		}
		if sp.Start != w.start || sp.End != w.end {
			t.Fatalf("span %d = [%v, %v], want [%v, %v]", i, sp.Start, sp.End, w.start, w.end)
		}
		if sp.Duration() <= 0 {
			t.Fatalf("span %d has no extent: %+v", i, sp)
		}
	}
	if spans[0].Start != 0 {
		t.Fatalf("the send starts at %v, want 0", spans[0].Start)
	}
	// Observer off: no more spans.
	net.SetObserver(nil)
	eng.Go("s2", func(p *vtime.Proc) { net.Send(p, 0, 1, 6, nil) })
	eng.Go("r2", func(p *vtime.Proc) { net.Recv(p, 1, 0, 6) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans()) != 3 {
		t.Fatal("observer should be disabled")
	}
}

func TestObserverMarksEscalations(t *testing.T) {
	cl := testCluster(9)
	eng := vtime.NewEngine()
	net, err := New(eng, cl, cluster.LAM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	net.SetObserver(tr)
	m := 48 << 10
	for i := 1; i < 9; i++ {
		i := i
		eng.Go("s", func(p *vtime.Proc) {
			for r := 0; r < 100; r++ {
				net.Send(p, i, 0, r, make([]byte, m))
				p.Sleep(300 * time.Millisecond)
			}
		})
	}
	eng.Go("r", func(p *vtime.Proc) {
		for k := 0; k < 8*100; k++ {
			net.Recv(p, 0, AnySource, AnyTag)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Each escalation point directly follows its message's send span
	// (the log renderer marks that inject ESC) and sits on the
	// destination's track, inside the message's wire phase.
	spans := tr.Spans()
	escalated := 0
	for i, sp := range spans {
		if sp.Cat != obs.CatFault || sp.Name != "escalation" {
			continue
		}
		escalated++
		if i == 0 || spans[i-1].Cat != obs.CatMessage || spans[i-1].Name != "send" {
			t.Fatalf("escalation point %d does not follow a send span", i)
		}
		send := spans[i-1]
		if sp.Track != send.Dst || sp.Start < send.End {
			t.Fatalf("escalation %+v does not belong to send %+v", sp, send)
		}
	}
	if escalated != net.Counters().Escalations {
		t.Fatalf("observer saw %d escalations, counters %d", escalated, net.Counters().Escalations)
	}
	if escalated == 0 {
		t.Fatal("expected some escalations at 48KB under contention")
	}
}

// Property: under random traffic patterns every message is delivered
// exactly once, flows are FIFO per (src,dst), and trace timestamps are
// monotone within each message.
func TestRandomTrafficProperties(t *testing.T) {
	prng := func(seed int64) func(n int) int {
		s := uint64(seed)*2654435761 + 1
		return func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(n))
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rnd := prng(seed)
		n := rnd(6) + 2
		cl := testCluster(n)
		eng := vtime.NewEngine()
		net, err := New(eng, cl, cluster.LAM(), seed)
		if err != nil {
			t.Fatal(err)
		}
		type plan struct{ src, dst, size, seqNum int }
		var plans []plan
		perFlow := map[[2]int]int{}
		for i := 0; i < 40; i++ {
			src := rnd(n)
			dst := rnd(n)
			if src == dst {
				dst = (dst + 1) % n
			}
			f := [2]int{src, dst}
			plans = append(plans, plan{src, dst, rnd(80 << 10), perFlow[f]})
			perFlow[f]++
		}
		// Senders: per source, send its plans in order; payload encodes
		// the per-flow sequence number.
		bySrc := map[int][]plan{}
		for _, p := range plans {
			bySrc[p.src] = append(bySrc[p.src], p)
		}
		for src, ps := range bySrc {
			src, ps := src, ps
			eng.Go("send", func(p *vtime.Proc) {
				for _, pl := range ps {
					payload := make([]byte, pl.size+1)
					payload[0] = byte(pl.seqNum)
					net.Send(p, src, pl.dst, 0, payload)
				}
			})
		}
		// Receivers: per destination, drain the expected count and check
		// per-flow FIFO.
		byDst := map[int]int{}
		for _, p := range plans {
			byDst[p.dst]++
		}
		received := 0
		for dst, cnt := range byDst {
			dst, cnt := dst, cnt
			eng.Go("recv", func(p *vtime.Proc) {
				lastSeq := map[int]int{}
				for i := 0; i < cnt; i++ {
					msg := net.Recv(p, dst, AnySource, AnyTag)
					received++
					seq := int(msg.Payload[0])
					if last, ok := lastSeq[msg.Src]; ok && seq != last+1 {
						t.Errorf("seed %d: flow %d→%d out of order: %d after %d", seed, msg.Src, dst, seq, last)
					}
					lastSeq[msg.Src] = seq
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if received != len(plans) {
			t.Fatalf("seed %d: received %d of %d", seed, received, len(plans))
		}
		if net.Counters().Messages != len(plans) {
			t.Fatalf("seed %d: counter mismatch", seed)
		}
	}
}

// Opposite-direction transfers on one pair are full duplex: the link
// serialization is per direction.
func TestFullDuplexLinks(t *testing.T) {
	cl := testCluster(2)
	m := 50000 // 0.5ms transfer each way
	var done0, done1 time.Duration
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("a", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 0, make([]byte, m))
			net.Recv(p, 0, 1, 0)
			done0 = p.Now()
		})
		eng.Go("b", func(p *vtime.Proc) {
			net.Send(p, 1, 0, 0, make([]byte, m))
			net.Recv(p, 1, 0, 0)
			done1 = p.Now()
		})
	})
	// Each side: send CPU (300µs) ∥ wire (540µs incl. L) + recv (300µs).
	// Full duplex → both finish at the same time, without an extra
	// serialized transfer.
	if done0 != done1 {
		t.Fatalf("duplex asymmetry: %v vs %v", done0, done1)
	}
	sc := time.Duration(300 * time.Microsecond)
	wire := time.Duration(540 * time.Microsecond)
	want := sc + wire + sc // send is CPU-serialized with the later recv processing
	if done0 != want {
		t.Fatalf("duplex exchange took %v, want %v", done0, want)
	}
}

// Rendezvous protocol: large sends block until delivery, so a linear
// scatter's root serializes whole point-to-point times — the serial
// sum the Hockney model's pessimistic reading assumes.
func TestRendezvousSerializesScatter(t *testing.T) {
	const n, m = 5, 20000
	cl := testCluster(n)
	prof := cluster.Ideal().RendezvousAt(1)
	var rootFree time.Duration
	net := run(t, cl, prof, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("root", func(p *vtime.Proc) {
			for i := 1; i < n; i++ {
				net.Send(p, 0, i, 0, make([]byte, m))
			}
			rootFree = p.Now()
		})
		for i := 1; i < n; i++ {
			i := i
			eng.Go("leaf", func(p *vtime.Proc) { net.Recv(p, i, 0, 0) })
		}
	})
	sc := net.SenderCost(0, m)
	wire := net.wireTime(0, 1, m)
	// Each send now occupies the root until arrival: 4 × (sc + wire).
	want := 4 * (sc + wire)
	if rootFree != want {
		t.Fatalf("rendezvous root free at %v, want %v", rootFree, want)
	}
	// Eager comparison: the root frees after CPU time only.
	var eagerFree time.Duration
	run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("root", func(p *vtime.Proc) {
			for i := 1; i < n; i++ {
				net.Send(p, 0, i, 0, make([]byte, m))
			}
			eagerFree = p.Now()
		})
		for i := 1; i < n; i++ {
			i := i
			eng.Go("leaf", func(p *vtime.Proc) { net.Recv(p, i, 0, 0) })
		}
	})
	if eagerFree >= rootFree {
		t.Fatalf("eager (%v) should free the root before rendezvous (%v)", eagerFree, rootFree)
	}
}

// The threshold splits the protocols: small messages stay eager.
func TestRendezvousThreshold(t *testing.T) {
	cl := testCluster(2)
	prof := cluster.Ideal().RendezvousAt(10000)
	var smallDone, bigDone time.Duration
	net := run(t, cl, prof, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 0, make([]byte, 100)) // eager
			smallDone = p.Now()
			net.Send(p, 0, 1, 1, make([]byte, 20000)) // rendezvous
			bigDone = p.Now()
		})
		eng.Go("r", func(p *vtime.Proc) {
			net.Recv(p, 1, 0, 0)
			net.Recv(p, 1, 0, 1)
		})
	})
	if smallDone != net.SenderCost(0, 100) {
		t.Fatalf("small send should be eager: %v", smallDone)
	}
	if bigDone <= smallDone+net.SenderCost(0, 20000) {
		t.Fatalf("big send should have blocked till delivery: %v", bigDone)
	}
}

// A message sent as parts costs exactly what one Send of their total
// size costs — same send, injection and arrival times, same counters,
// escalations and serialized ingress included — and arrives as the
// sender's own buffers.
func TestSendPartsCostsLikeOneSend(t *testing.T) {
	const senders, rounds = 8, 60
	cl := testCluster(senders + 1)
	// Round r sends partSizes[r%4]: twice inside the escalation region,
	// then past M2 (serialized ingress) and below M1.
	partSizes := [][]int{{10 << 10, 12 << 10, 8 << 10}, {4 << 10, 16 << 10}, {40 << 10, 60 << 10}, {1 << 10, 1 << 10}}
	sent := make([][][][]byte, senders+1) // sent[src][round]: the parts
	for i := 1; i <= senders; i++ {
		sent[i] = make([][][]byte, rounds)
		for r := range sent[i] {
			for _, size := range partSizes[r%4] {
				sent[i][r] = append(sent[i][r], make([]byte, size))
			}
		}
	}
	type arrival struct {
		src, tag, size                int
		sentAt, injectedAt, arrivedAt time.Duration
		receivedAt                    time.Duration
	}
	runOnce := func(asParts bool) ([]arrival, Counters) {
		var got []arrival
		net := run(t, cl, cluster.LAM(), 7, func(net *Network, eng *vtime.Engine) {
			for i := 1; i <= senders; i++ {
				i := i
				eng.Go("s", func(p *vtime.Proc) {
					for r, parts := range sent[i] {
						if asParts {
							net.SendParts(p, i, 0, r, parts)
						} else {
							total := 0
							for _, b := range parts {
								total += len(b)
							}
							net.Send(p, i, 0, r, make([]byte, total))
						}
						p.Sleep(100 * time.Millisecond) // start rounds together
					}
				})
			}
			eng.Go("r", func(p *vtime.Proc) {
				for k := 0; k < senders*rounds; k++ {
					msg := net.Recv(p, 0, AnySource, AnyTag)
					got = append(got, arrival{msg.Src, msg.Tag, msg.Size(), msg.SentAt, msg.InjectedAt, msg.ArrivedAt, p.Now()})
					if !asParts {
						continue
					}
					want := sent[msg.Src][msg.Tag]
					if msg.Payload != nil || len(msg.Parts) != len(want) {
						t.Fatalf("message %d/%d arrived with payload %d B and %d parts, want %d parts", msg.Src, msg.Tag, len(msg.Payload), len(msg.Parts), len(want))
					}
					for k, b := range msg.Parts {
						if len(b) != len(want[k]) || &b[0] != &want[k][0] {
							t.Fatalf("message %d/%d part %d is not the buffer sent", msg.Src, msg.Tag, k)
						}
					}
				}
			})
		})
		return got, net.Counters()
	}
	whole, wc := runOnce(false)
	parts, pc := runOnce(true)
	t.Logf("counters %+v", wc)
	if wc.Escalations == 0 || wc.Serialized == 0 {
		t.Fatalf("counters %+v: the traffic must escalate and serialize to test both", wc)
	}
	if pc != wc {
		t.Fatalf("counters: parts %+v, one send %+v", pc, wc)
	}
	for k := range whole {
		if parts[k] != whole[k] {
			t.Fatalf("arrival %d: parts %+v, one send %+v", k, parts[k], whole[k])
		}
	}
}

// TestLookaheadLeavesTheStreamAsDrawn checks the lookahead in the
// escalation stream against a fresh generator of the same seed: a
// refused lookahead leaves its values to the draws that follow, which
// see exactly the generator's sequence; an accepted one consumes its
// values as draws; Peak notes the highest probability a draw met since
// Mark; and Reset drops whatever was drawn ahead.
func TestLookaheadLeavesTheStreamAsDrawn(t *testing.T) {
	const seed = 11
	fresh := rand.New(rand.NewSource(seed))
	want := make([]float64, 40)
	for i := range want {
		want[i] = fresh.Float64()
	}
	net, err := New(vtime.NewEngine(), testCluster(4), cluster.LAM(), seed)
	if err != nil {
		t.Fatal(err)
	}
	next := 0 // the index in want of the next value draw returns
	expect := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if v := net.draw(); v != want[next] {
				t.Fatalf("draw %d returned %v, want the generator's %v", next, v, want[next])
			}
			next++
		}
		if net.Draws() != next {
			t.Fatalf("%d draws counted, want %d", net.Draws(), next)
		}
	}
	expect(3)
	if net.Lookahead(6, 1) { // every value lies below 1
		t.Fatal("a lookahead against probability 1 was accepted")
	}
	expect(2)                // from the values drawn ahead
	if net.Lookahead(8, 1) { // the four left, then four more from the generator
		t.Fatal("a lookahead against probability 1 was accepted")
	}
	expect(10) // past the values drawn ahead
	if !net.Lookahead(5, 0) {
		t.Fatal("a lookahead against probability 0 was refused")
	}
	next += 5
	expect(1)
	window := want[next : next+4]
	low := min(window[0], window[1], window[2], window[3])
	if net.Lookahead(4, low+1e-12) || !net.Lookahead(4, low) {
		t.Fatalf("a lookahead over %v refused its lowest value %v, or accepted above it", window, low)
	}
	next += 4
	expect(1)

	net.Mark()
	if net.Peak() != 0 {
		t.Fatalf("peak %v right after Mark, want 0", net.Peak())
	}
	for _, pr := range []float64{0.02, 0.05, 0.03} {
		if got := net.escalates(pr); got != (want[next] < pr) {
			t.Fatalf("escalates(%v) = %v on %v", pr, got, want[next])
		}
		next++
	}
	if net.Peak() != 0.05 {
		t.Fatalf("peak %v, want the highest probability met, 0.05", net.Peak())
	}

	// Values drawn ahead do not outlive a Reset: the reset stream is the
	// generator's from its start.
	if net.Lookahead(6, 1) {
		t.Fatal("a lookahead against probability 1 was accepted")
	}
	if err := net.Reset(testCluster(4), cluster.LAM(), seed); err != nil {
		t.Fatal(err)
	}
	if net.Peak() != 0 {
		t.Fatalf("peak %v after Reset, want 0", net.Peak())
	}
	next = 0
	expect(8)
}
