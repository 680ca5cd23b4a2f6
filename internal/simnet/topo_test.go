package simnet

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// topoCluster puts the homogeneous test hardware over a fabric.
func topoCluster(t *topo.Topology) *cluster.Cluster {
	c := testCluster(t.Nodes())
	c.Topo = t
	return c
}

func TestFabricAddsRouteCost(t *testing.T) {
	// Two racks of two behind a spine: nodes 0,1 on rack 0, nodes 2,3 on
	// rack 1; cross-rack routes traverse two uplink hops.
	up := topo.ClassSpec{Class: topo.Uplink, L: 10 * time.Microsecond, Beta: 1e8, Lanes: 1}
	cl := topoCluster(topo.TwoTier(2, 2, up))
	const m = 10000
	var sameRack, crossRack time.Duration
	net := run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s", func(p *vtime.Proc) {
			net.Send(p, 0, 1, 1, make([]byte, m))
			net.Send(p, 0, 2, 2, make([]byte, m))
		})
		eng.Go("r1", func(p *vtime.Proc) {
			msg := net.Recv(p, 1, 0, 1)
			sameRack = msg.ArrivedAt - msg.InjectedAt
		})
		eng.Go("r2", func(p *vtime.Proc) {
			msg := net.Recv(p, 2, 0, 2)
			crossRack = msg.ArrivedAt - msg.InjectedAt
		})
	})
	// Same rack: the classic access segment only, 40µs + 100µs.
	if want := 140 * time.Microsecond; sameRack != want {
		t.Fatalf("same-rack wire time %v, want %v", sameRack, want)
	}
	// Cross rack adds two store-and-forward hops of 10µs + 100µs each.
	if want := sameRack + 2*(10+100)*time.Microsecond; crossRack != want {
		t.Fatalf("cross-rack wire time %v, want %v", crossRack, want)
	}
	c := net.Counters()
	if c.Hops != 2 {
		t.Fatalf("Hops = %d, want 2 (one cross-rack message, two hops)", c.Hops)
	}
	if c.FabricQueued != 0 {
		t.Fatalf("FabricQueued = %d on uncontended fabric", c.FabricQueued)
	}
}

func TestWireTimeMatchesSimulatedFabric(t *testing.T) {
	cl := topoCluster(topo.TwoTier(2, 2, topo.DefaultUplink()))
	for _, m := range []int{0, 100, 64 * 1024} {
		var measured time.Duration
		net := run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
			eng.Go("s", func(p *vtime.Proc) { net.Send(p, 0, 3, 0, make([]byte, m)) })
			eng.Go("r", func(p *vtime.Proc) {
				msg := net.Recv(p, 3, 0, 0)
				measured = msg.ArrivedAt - msg.InjectedAt
			})
		})
		if want := net.wireTime(0, 3, m); measured != want {
			t.Fatalf("m=%d: simulated wire time %v, wireTime says %v", m, measured, want)
		}
	}
}

func TestFabricLaneContentionQueues(t *testing.T) {
	// One-lane uplinks: two simultaneous cross-rack flows from distinct
	// senders must serialize on the rack 0 → spine trunk even though
	// their access segments are disjoint.
	up := topo.ClassSpec{Class: topo.Uplink, L: 10 * time.Microsecond, Beta: 1e8, Lanes: 1}
	cl := topoCluster(topo.TwoTier(2, 2, up))
	const m = 100000 // 1ms transfer per hop: queueing dominates jitter
	var a1, a2 time.Duration
	net := run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s0", func(p *vtime.Proc) { net.Send(p, 0, 2, 0, make([]byte, m)) })
		eng.Go("s1", func(p *vtime.Proc) { net.Send(p, 1, 3, 0, make([]byte, m)) })
		eng.Go("r2", func(p *vtime.Proc) { a1 = recvArrival(p, net, 2, 0) })
		eng.Go("r3", func(p *vtime.Proc) { a2 = recvArrival(p, net, 3, 1) })
	})
	c := net.Counters()
	if c.FabricQueued == 0 {
		t.Fatal("two overlapping flows on a one-lane trunk never queued")
	}
	// The queued flow finishes one transfer time (1ms) after the other.
	gap := a2 - a1
	if gap < 0 {
		gap = -gap
	}
	if want := time.Duration(float64(m) / 1e8 * float64(time.Second)); gap != want {
		t.Fatalf("arrival gap %v, want one trunk transfer %v", gap, want)
	}

	// Four lanes: the same two flows ride separate lanes, no queueing.
	up.Lanes = 4
	cl = topoCluster(topo.TwoTier(2, 2, up))
	net = run(t, cl, cluster.Ideal(), 1, func(net *Network, eng *vtime.Engine) {
		eng.Go("s0", func(p *vtime.Proc) { net.Send(p, 0, 2, 0, make([]byte, m)) })
		eng.Go("s1", func(p *vtime.Proc) { net.Send(p, 1, 3, 0, make([]byte, m)) })
		eng.Go("r2", func(p *vtime.Proc) { net.Recv(p, 2, 0, 0) })
		eng.Go("r3", func(p *vtime.Proc) { net.Recv(p, 3, 1, 0) })
	})
	if q := net.Counters().FabricQueued; q != 0 {
		t.Fatalf("FabricQueued = %d with enough lanes", q)
	}
}

func recvArrival(p *vtime.Proc, net *Network, dst, src int) time.Duration {
	msg := net.Recv(p, dst, src, AnyTag)
	return msg.ArrivedAt
}

func TestSingleSwitchTopologyIsInert(t *testing.T) {
	// Attaching an explicit single-switch topology must not change a
	// single timestamp or counter relative to no topology at all, across
	// a traffic pattern that exercises escalations (RNG draws) too.
	body := func(net *Network, eng *vtime.Engine) {
		for s := 0; s < 4; s++ {
			s := s
			eng.Go("s", func(p *vtime.Proc) {
				for r := 0; r < 5; r++ {
					net.Send(p, s, 4, r, make([]byte, 30000))
				}
			})
		}
		eng.Go("r", func(p *vtime.Proc) {
			for i := 0; i < 20; i++ {
				net.Recv(p, 4, AnySource, AnyTag)
			}
		})
	}
	bare := run(t, testCluster(5), cluster.LAM(), 7, body)
	withTopo := run(t, topoCluster(topo.SingleSwitch(5)), cluster.LAM(), 7, body)
	if bare.Counters() != withTopo.Counters() {
		t.Fatalf("single-switch topology perturbed the run:\nbare %+v\ntopo %+v",
			bare.Counters(), withTopo.Counters())
	}
	if withTopo.Counters().Hops != 0 {
		t.Fatal("single-switch run counted fabric hops")
	}
}
