package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
)

func faultTestCluster(n int) *cluster.Cluster {
	return cluster.Homogeneous(n,
		cluster.NodeSpec{C: 50 * time.Microsecond, T: 5e-9},
		cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
}

func TestBadCollectiveInputReturnsInputError(t *testing.T) {
	// unequal returns a rank's gather block: 2 bytes on rank odd, 1
	// elsewhere.
	unequal := func(rank, odd int) []byte {
		if rank == odd {
			return []byte{1, 2}
		}
		return []byte{1}
	}
	// comm runs op on a 3-member communicator over ranks 0..2.
	comm := func(op func(c *Comm)) func(r *Rank) {
		return func(r *Rank) {
			if r.Rank() == 3 {
				return
			}
			c, err := r.CommOf([]int{0, 1, 2})
			if err != nil {
				panic(err)
			}
			op(c)
		}
	}
	cases := []struct {
		name string
		n    int
		body func(r *Rank)
	}{
		{"scatter-block-count", 4, func(r *Rank) {
			var blocks [][]byte
			if r.Rank() == 0 {
				blocks = [][]byte{{1}, {2}} // 2 blocks for 4 ranks
			}
			r.Scatter(Linear, 0, blocks)
		}},
		{"scatter-unequal-blocks", 4, func(r *Rank) {
			var blocks [][]byte
			if r.Rank() == 0 {
				blocks = [][]byte{{1}, {2, 3}, {4}, {5}}
			}
			r.Scatter(Linear, 0, blocks)
		}},
		{"scatter-one-rank-no-blocks", 1, func(r *Rank) {
			r.Scatter(Linear, 0, nil)
		}},
		{"scatterv-counts", 4, func(r *Rank) {
			r.Scatterv(Linear, 0, nil, []int{1, 2}) // 2 counts for 4 ranks
		}},
		{"scatterv-one-rank-no-blocks", 1, func(r *Rank) {
			r.Scatterv(Linear, 0, nil, []int{1})
		}},
		{"gather-linear-unequal-block", 4, func(r *Rank) {
			r.Gather(Linear, 0, unequal(r.Rank(), 2)) // the root sees it
		}},
		{"gather-binomial-unequal-block", 4, func(r *Rank) {
			r.Gather(Binomial, 0, unequal(r.Rank(), 3)) // inner node 2 sees it
		}},
		{"gatherv-block-size", 4, func(r *Rank) {
			counts := []int{1, 1, 1, 1}
			r.Gatherv(Linear, 0, []byte{1, 2, 3}, counts) // 3 bytes, counts say 1
		}},
		{"gatherv-counts-disagree", 4, func(r *Rank) {
			counts := []int{1, 1, 1, 1}
			if r.Rank() == 1 {
				counts = []int{1, 2, 1, 1} // rank 1 sends 2 bytes, the root wants 1
			}
			r.Gatherv(Linear, 0, make([]byte, counts[r.Rank()]), counts)
		}},
		{"scatterv-counts-disagree", 4, func(r *Rank) {
			counts := []int{1, 1, 1, 1}
			var blocks [][]byte
			switch r.Rank() {
			case 0:
				blocks = [][]byte{{1}, {2}, {3}, {4}}
			case 1:
				counts = []int{1, 3, 1, 1} // rank 1 wants 3 bytes, the root sends 1
			}
			r.Scatterv(Linear, 0, blocks, counts)
		}},
		{"comm-scatter-unequal-blocks", 4, comm(func(c *Comm) {
			var blocks [][]byte
			if c.Rank() == 0 {
				blocks = [][]byte{{1}, {2, 3}, {4}}
			}
			c.Scatter(Linear, 0, blocks)
		})},
		{"comm-gather-unequal-block", 4, comm(func(c *Comm) {
			c.Gather(Linear, 0, unequal(c.Rank(), 1))
		})},
		{"alltoall-blocks", 4, func(r *Rank) {
			r.Alltoall([][]byte{{1}}) // 1 block for 4 ranks
		}},
		{"send-tag-range", 4, func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(1, MaxUserTag+1, nil)
			}
		}},
		{"recv-tag-range", 4, func(r *Rank) {
			if r.Rank() == 0 {
				r.Recv(AnySource, -2) // negative, but not AnyTag
			}
		}},
		{"comm-recv-tag-range", 4, comm(func(c *Comm) {
			if c.Rank() == 0 {
				c.Recv(AnySource, MaxUserTag+1)
			}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Cluster: faultTestCluster(tc.n)}, tc.body)
			var ie *InputError
			if !errors.As(err, &ie) {
				t.Fatalf("Run returned %v, want *InputError", err)
			}
		})
	}
}

// TestCollectiveRootOutOfRangeReturnsInputError pins the root check of
// every rooted collective, world and sub-communicator alike: a root
// outside the group is invalid input, not an internal panic.
func TestCollectiveRootOutOfRangeReturnsInputError(t *testing.T) {
	const n = 4
	commOp := func(op func(c *Comm, root int)) func(r *Rank, root int) {
		return func(r *Rank, root int) {
			if r.Rank() == n-1 {
				return // a 3-member communicator over ranks 0..2
			}
			c, err := r.CommOf([]int{0, 1, 2})
			if err != nil {
				panic(err)
			}
			op(c, root)
		}
	}
	cases := []struct {
		name string
		size int // the group the root must lie in
		body func(r *Rank, root int)
	}{
		{"scatter", n, func(r *Rank, root int) { r.Scatter(Binomial, root, make([][]byte, n)) }},
		{"gather", n, func(r *Rank, root int) { r.Gather(Binomial, root, []byte{1}) }},
		{"scatterv", n, func(r *Rank, root int) { r.Scatterv(Linear, root, make([][]byte, n), make([]int, n)) }},
		{"gatherv", n, func(r *Rank, root int) { r.Gatherv(Linear, root, nil, make([]int, n)) }},
		{"bcast", n, func(r *Rank, root int) { r.Bcast(root, []byte{1}) }},
		{"reduce", n, func(r *Rank, root int) { r.Reduce(root, []byte{1}, func(a, _ []byte) []byte { return a }) }},
		{"comm-scatter", n - 1, commOp(func(c *Comm, root int) { c.Scatter(Linear, root, make([][]byte, n-1)) })},
		{"comm-gather", n - 1, commOp(func(c *Comm, root int) { c.Gather(Linear, root, []byte{1}) })},
		{"comm-bcast", n - 1, commOp(func(c *Comm, root int) { c.Bcast(root, []byte{1}) })},
	}
	for _, tc := range cases {
		for _, root := range []int{-1, tc.size} {
			t.Run(fmt.Sprintf("%s/root%d", tc.name, root), func(t *testing.T) {
				_, err := Run(Config{Cluster: faultTestCluster(n)}, func(r *Rank) { tc.body(r, root) })
				var ie *InputError
				if !errors.As(err, &ie) || !strings.Contains(ie.Reason, "root") {
					t.Fatalf("Run returned %v, want a root *InputError", err)
				}
			})
		}
	}
}

// TestCrashedNonRootNodeReturnsCrashError is the issue's acceptance
// scenario: with a non-root node crashed mid-job, Run must return a
// typed crash error instead of hanging.
func TestCrashedNonRootNodeReturnsCrashError(t *testing.T) {
	cfg := Config{
		Cluster: faultTestCluster(4),
		Faults:  &faults.Plan{Crashes: []faults.Crash{{Node: 2, At: 100 * time.Microsecond}}},
	}
	_, err := Run(cfg, func(r *Rank) {
		r.Sleep(1 * time.Millisecond) // let the crash fire first
		// Root gathers from everyone; rank 2 is dead, so the gather
		// cannot complete.
		r.Gather(Linear, 0, make([]byte, 100))
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run returned %v, want *CrashError", err)
	}
	if len(ce.Nodes) != 1 || ce.Nodes[0] != 2 {
		t.Fatalf("CrashError.Nodes = %v, want [2]", ce.Nodes)
	}
}

func TestRunSurvivesLossAndStragglers(t *testing.T) {
	cfg := Config{
		Cluster: faultTestCluster(4),
		Profile: cluster.LAM(),
		Seed:    3,
		Faults: &faults.Plan{
			Loss:       []faults.LinkLoss{{Src: 1, Dst: 0, Prob: 0.3, RTO: 1 * time.Millisecond}},
			Stragglers: []faults.Straggler{{Node: 3, CPUX: 2}},
		},
	}
	var gathered int
	res, err := Run(cfg, func(r *Rank) {
		for i := 0; i < 10; i++ {
			out := r.Gather(Binomial, 0, make([]byte, 2000))
			if r.Rank() == 0 {
				gathered = len(out)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if gathered != 4 {
		t.Fatalf("gather returned %d blocks, want 4", gathered)
	}
	if res.Faults.Lost == 0 {
		t.Fatalf("no injected loss recorded over 10 gathers at 30%% loss, stats %+v", res.Faults)
	}
	if res.Net.Stalled != res.Faults.Stalled {
		t.Fatalf("network counter (%v) and injector stats (%v) disagree on stall time",
			res.Net.Stalled, res.Faults.Stalled)
	}
}

func TestRunFaultDeterminism(t *testing.T) {
	cfg := Config{
		Cluster: faultTestCluster(4),
		Profile: cluster.MPICH(),
		Seed:    17,
		Faults:  faults.Demo(4),
	}
	trial := func() (time.Duration, faults.Stats) {
		res, err := Run(cfg, func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.Gather(Linear, 0, make([]byte, 4000))
				r.Bcast(0, make([]byte, 1000))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration, res.Faults
	}
	d1, s1 := trial()
	d2, s2 := trial()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("same seed diverged: %v/%+v vs %v/%+v", d1, s1, d2, s2)
	}
}

func TestRecvTimeoutAndSendTimeout(t *testing.T) {
	var recvErr, sendOK, tagErr, recvTagErr error
	_, err := Run(Config{Cluster: faultTestCluster(2)}, func(r *Rank) {
		if r.Rank() == 1 {
			_, _, recvTagErr = r.RecvTimeout(0, -2, time.Millisecond)
			_, _, recvErr = r.RecvTimeout(0, 5, 1*time.Millisecond)
			// The late message still arrives; drain it so the job ends
			// cleanly.
			r.Recv(0, 5)
		} else {
			tagErr = r.SendTimeout(1, MaxUserTag+1, nil, 0)
			r.Sleep(10 * time.Millisecond)
			sendOK = r.SendTimeout(1, 5, make([]byte, 100), time.Second)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var te *TimeoutError
	if !errors.As(recvErr, &te) {
		t.Fatalf("RecvTimeout returned %v, want *TimeoutError", recvErr)
	}
	if sendOK != nil {
		t.Fatalf("SendTimeout with slack deadline failed: %v", sendOK)
	}
	var ie *InputError
	if !errors.As(tagErr, &ie) {
		t.Fatalf("SendTimeout with bad tag returned %v, want *InputError", tagErr)
	}
	if !errors.As(recvTagErr, &ie) {
		t.Fatalf("RecvTimeout with bad tag returned %v, want *InputError", recvTagErr)
	}
}

func TestRecvTimeoutDetectsCrashedPeer(t *testing.T) {
	cfg := Config{
		Cluster: faultTestCluster(3),
		Faults:  &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0}}},
	}
	var recvErr error
	_, err := Run(cfg, func(r *Rank) {
		if r.Rank() == 2 {
			r.Sleep(1 * time.Millisecond)
			_, _, recvErr = r.RecvTimeout(1, 7, time.Second)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var ce *CrashError
	if !errors.As(recvErr, &ce) {
		t.Fatalf("RecvTimeout returned %v, want *CrashError", recvErr)
	}
}
