package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/vtime"
)

// runFaults is run with a fault plan installed before any process
// starts. It returns the network and the engine error (many fault
// scenarios end in a typed error rather than a clean drain).
func runFaults(t *testing.T, cl *cluster.Cluster, plan *faults.Plan, seed int64,
	body func(net *Network, eng *vtime.Engine)) (*Network, error) {
	t.Helper()
	eng := vtime.NewEngine()
	net, err := New(eng, cl, cluster.Ideal(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	body(net, eng)
	return net, eng.Run()
}

func TestStragglerInflatesCPU(t *testing.T) {
	cl := testCluster(2)
	const m = 10000
	var base, slow time.Duration
	_, err := runFaults(t, cl, nil, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("sender", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 7, make([]byte, m))
			base = p.Now()
		})
		eng.Go("receiver", func(p *vtime.Proc) { net.Recv(p, 1, 0, 7) })
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Stragglers: []faults.Straggler{{Node: 0, CPUX: 3}}}
	_, err = runFaults(t, cl, plan, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("sender", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 7, make([]byte, m))
			slow = p.Now()
		})
		eng.Go("receiver", func(p *vtime.Proc) { net.Recv(p, 1, 0, 7) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow != 3*base {
		t.Fatalf("straggler sender freed at %v, want 3x the fault-free %v", slow, base)
	}
}

func TestLinkDegradeStretchesWire(t *testing.T) {
	cl := testCluster(2)
	const m = 10000
	recvAt := func(plan *faults.Plan) time.Duration {
		var at time.Duration
		_, err := runFaults(t, cl, plan, 1, func(net *Network, eng *vtime.Engine) {
			eng.Go("sender", func(p *vtime.Proc) { net.Send(p, 0, 1, 7, make([]byte, m)) })
			eng.Go("receiver", func(p *vtime.Proc) {
				net.Recv(p, 1, 0, 7)
				at = p.Now()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	base := recvAt(nil)
	deg := recvAt(&faults.Plan{Degrade: []faults.LinkDegrade{
		{Src: 0, Dst: 1, LatencyX: 4, RateX: 0.5},
	}})
	// Base wire: 40µs latency + 100µs transfer. Degraded: 160µs + 200µs.
	want := base + 3*40*time.Microsecond + 100*time.Microsecond
	if deg != want {
		t.Fatalf("degraded recv done at %v, want %v (base %v)", deg, want, base)
	}
	// A window that closed before the send leaves timing untouched.
	closed := recvAt(&faults.Plan{Degrade: []faults.LinkDegrade{
		{Src: 0, Dst: 1, From: 0, Until: 1 * time.Nanosecond, LatencyX: 4, RateX: 0.5},
	}})
	if closed != base {
		t.Fatalf("closed-window recv done at %v, want fault-free %v", closed, base)
	}
}

func TestLinkLossStallsAndCounts(t *testing.T) {
	cl := testCluster(2)
	plan := &faults.Plan{Loss: []faults.LinkLoss{
		{Src: 0, Dst: 1, Prob: 0.999999, RTO: 10 * time.Millisecond, MaxRetr: 2},
	}}
	var recvDone time.Duration
	net, err := runFaults(t, cl, plan, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("sender", func(p *vtime.Proc) { net.Send(p, 0, 1, 7, make([]byte, 1000)) })
		eng.Go("receiver", func(p *vtime.Proc) {
			net.Recv(p, 1, 0, 7)
			recvDone = p.Now()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	c := net.Counters()
	if c.Lost != 2 {
		t.Fatalf("Lost = %d, want 2 (MaxRetr cap)", c.Lost)
	}
	// 10ms + 20ms backoff.
	if c.Stalled != 30*time.Millisecond {
		t.Fatalf("Stalled = %v, want 30ms", c.Stalled)
	}
	if recvDone < 30*time.Millisecond {
		t.Fatalf("recv done at %v; loss stall not applied to the wire", recvDone)
	}
	if fs := net.FaultStats(); fs.Lost != 2 || fs.Stalled != 30*time.Millisecond {
		t.Fatalf("FaultStats = %+v, want Lost 2, Stalled 30ms", fs)
	}
}

func TestFaultDeterminismAndStreamIsolation(t *testing.T) {
	cl := testCluster(4)
	plan := &faults.Plan{Loss: []faults.LinkLoss{
		{Src: faults.Any, Dst: faults.Any, Prob: 0.3, RTO: 5 * time.Millisecond, MaxRetr: 3},
	}}
	trial := func(p *faults.Plan, seed int64) (time.Duration, Counters) {
		var last time.Duration
		net, err := runFaults(t, cl, p, seed, func(net *Network, eng *vtime.Engine) {
			for i := 1; i < 4; i++ {
				i := i
				eng.Go("sender", func(p *vtime.Proc) {
					for k := 0; k < 20; k++ {
						net.Send(p, i, 0, k, make([]byte, 2000))
					}
				})
			}
			eng.Go("root", func(p *vtime.Proc) {
				for k := 0; k < 60; k++ {
					net.Recv(p, 0, AnySource, AnyTag)
				}
				last = p.Now()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return last, net.Counters()
	}
	t1, c1 := trial(plan, 42)
	t2, c2 := trial(plan, 42)
	if t1 != t2 || c1 != c2 {
		t.Fatalf("same seed diverged: %v/%+v vs %v/%+v", t1, c1, t2, c2)
	}
	t3, _ := trial(plan, 43)
	if t3 == t1 {
		t.Fatalf("different seeds produced identical completion time %v", t1)
	}
	if c1.Lost == 0 {
		t.Fatalf("no packets lost at 30%% loss over 60 transfers")
	}
}

func TestCrashBlackHolesAndRecvDetects(t *testing.T) {
	cl := testCluster(3)
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 1 * time.Millisecond}}}
	var recvErr error
	net, err := runFaults(t, cl, plan, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("victim", func(p *vtime.Proc) {
			// Runs past its crash time, then touches the network: the
			// process must self-terminate instead of sending.
			p.Sleep(2 * time.Millisecond)
			net.Send(p, 1, 2, 7, make([]byte, 100))
			t.Error("victim survived its crash")
		})
		eng.Go("waiter", func(p *vtime.Proc) {
			_, recvErr = net.RecvDeadline(p, 2, 1, 7, 0)
		})
		eng.Go("talker", func(p *vtime.Proc) {
			// A message in flight when the crash fires is black-holed.
			net.Send(p, 0, 1, 9, make([]byte, 200000))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var ce *CrashError
	if !errors.As(recvErr, &ce) {
		t.Fatalf("RecvDeadline returned %v, want *CrashError", recvErr)
	}
	if ce.Waiter != 2 || len(ce.Nodes) != 1 || ce.Nodes[0] != 1 {
		t.Fatalf("CrashError = %+v, want waiter 2 blocked on node 1", ce)
	}
	c := net.Counters()
	if c.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1", c.Crashed)
	}
	if c.BlackHole != 1 {
		t.Fatalf("BlackHole = %d, want 1 (the in-flight message)", c.BlackHole)
	}
	if got := net.CrashedNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("CrashedNodes = %v, want [1]", got)
	}
}

func TestSendToDeadPeerErrors(t *testing.T) {
	cl := testCluster(2)
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0}}}
	var sendErr error
	_, err := runFaults(t, cl, plan, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("sender", func(p *vtime.Proc) {
			p.Sleep(1 * time.Microsecond) // let the crash event fire
			sendErr = net.SendDeadline(p, 0, 1, 7, make([]byte, 100), 0)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var ce *CrashError
	if !errors.As(sendErr, &ce) {
		t.Fatalf("SendDeadline returned %v, want *CrashError", sendErr)
	}
}

func TestRecvDeadlineTimesOut(t *testing.T) {
	cl := testCluster(2)
	var msgErr error
	_, err := runFaults(t, cl, nil, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("receiver", func(p *vtime.Proc) {
			_, msgErr = net.RecvDeadline(p, 1, 0, 7, 5*time.Millisecond)
		})
		eng.Go("lateSender", func(p *vtime.Proc) {
			p.Sleep(20 * time.Millisecond)
			net.Send(p, 0, 1, 7, make([]byte, 100))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var te *TimeoutError
	if !errors.As(msgErr, &te) {
		t.Fatalf("RecvDeadline returned %v, want *TimeoutError", msgErr)
	}
	if te.Op != "recv" || te.Rank != 1 || te.Peer != 0 || te.Deadline != 5*time.Millisecond {
		t.Fatalf("TimeoutError = %+v", te)
	}
}

func TestRecvDeadlineDeliversInTime(t *testing.T) {
	cl := testCluster(2)
	var msg Message
	var msgErr error
	_, err := runFaults(t, cl, nil, 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("receiver", func(p *vtime.Proc) {
			msg, msgErr = net.RecvDeadline(p, 1, 0, 7, 50*time.Millisecond)
		})
		eng.Go("sender", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 7, make([]byte, 100))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgErr != nil || msg.Src != 0 {
		t.Fatalf("RecvDeadline = (%v, %v), want message from 0", msg, msgErr)
	}
}

func TestFaultFreeRunIdenticalWithEmptyPlan(t *testing.T) {
	cl := testCluster(4)
	trial := func(plan *faults.Plan) (time.Duration, Counters) {
		var last time.Duration
		net, err := runFaults(t, cl, plan, 7, func(net *Network, eng *vtime.Engine) {
			for i := 1; i < 4; i++ {
				i := i
				eng.Go("sender", func(p *vtime.Proc) {
					for k := 0; k < 10; k++ {
						net.Send(p, i, 0, k, make([]byte, 5000))
					}
				})
			}
			eng.Go("root", func(p *vtime.Proc) {
				for k := 0; k < 30; k++ {
					net.Recv(p, 0, AnySource, AnyTag)
				}
				last = p.Now()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return last, net.Counters()
	}
	tNil, cNil := trial(nil)
	tEmpty, cEmpty := trial(&faults.Plan{})
	if tNil != tEmpty || cNil != cEmpty {
		t.Fatalf("empty plan changed the run: %v/%+v vs %v/%+v", tNil, cNil, tEmpty, cEmpty)
	}
}

func TestSetFaultsRejectsBadPlan(t *testing.T) {
	cl := testCluster(2)
	eng := vtime.NewEngine()
	net, err := New(eng, cl, cluster.Ideal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &faults.Plan{Crashes: []faults.Crash{{Node: 9, At: 0}}}
	if err := net.SetFaults(bad); err == nil {
		t.Fatal("SetFaults accepted a crash of a node outside the cluster")
	}
}
