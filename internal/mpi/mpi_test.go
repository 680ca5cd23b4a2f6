package mpi

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
)

func testConfig(n int) Config {
	return Config{
		Cluster: cluster.Homogeneous(n,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 5e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: cluster.Ideal(),
		Seed:    1,
	}
}

// mkBlocks builds n distinct, recognisable blocks of size bs.
func mkBlocks(n, bs int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, bs)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		out[i] = b
	}
	return out
}

func TestSendRecvBasic(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 9, []byte("hello"))
		} else {
			data, st := r.Recv(0, 9)
			if string(data) != "hello" {
				t.Errorf("payload = %q", data)
			}
			if st.Source != 0 || st.Tag != 9 || st.Bytes != 5 {
				t.Errorf("status = %+v", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, MaxUserTag+1, nil)
		} else {
			r.Recv(AnySource, AnyTag)
		}
	})
	if err == nil {
		t.Fatal("tag beyond MaxUserTag should fail the job")
	}
}

// digest hashes blocks in order.
func digest(blocks [][]byte) uint64 {
	h := fnv.New64a()
	for _, b := range blocks {
		h.Write(b)
	}
	return h.Sum64()
}

func TestScatterGatherRoundTripAllAlgorithms(t *testing.T) {
	type shape struct {
		name    string
		scatter func(r *Rank, root int, blocks [][]byte) []byte
		gather  func(r *Rank, root int, block []byte) [][]byte
	}
	var shapes []shape
	for _, alg := range Algorithms() {
		shapes = append(shapes, shape{alg.String(),
			func(r *Rank, root int, blocks [][]byte) []byte { return r.Scatter(alg, root, blocks) },
			func(r *Rank, root int, block []byte) [][]byte { return r.Gather(alg, root, block) }})
	}
	kary := func(r *Rank, root int) *collective.Tree { return collective.ShapeTree(Binary, 3, r.Size(), root) }
	shapes = append(shapes, shape{"3-ary",
		func(r *Rank, root int, blocks [][]byte) []byte { return r.ScatterTree(kary(r, root), blocks) },
		func(r *Rank, root int, block []byte) [][]byte { return r.GatherTree(kary(r, root), block) }})
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
			for _, root := range []int{0, n - 1, n / 2} {
				name := fmt.Sprintf("%s/n=%d/root=%d", sh.name, n, root)
				blocks := mkBlocks(n, 64)
				want := mkBlocks(n, 64) // a copy no collective can return a view of
				gathered := make([][][]byte, n)
				_, err := Run(testConfig(n), func(r *Rank) {
					// in is this rank's input: blocks at the root, and
					// elsewhere the block it gathers.
					var in [][]byte
					if r.Rank() == root {
						in = blocks
					}
					before := digest(in)
					mine := sh.scatter(r, root, in)
					if !bytes.Equal(mine, want[r.Rank()]) {
						t.Errorf("%s: rank %d got wrong block", name, r.Rank())
					}
					if r.Rank() != root {
						in = [][]byte{mine}
						before = digest(in)
					}
					gathered[r.Rank()] = sh.gather(r, root, mine)
					if digest(in) != before {
						t.Errorf("%s: rank %d's input changed", name, r.Rank())
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for rk, g := range gathered {
					if rk == root {
						if len(g) != n {
							t.Fatalf("%s: root gathered %d blocks", name, len(g))
						}
						for i := range g {
							if !bytes.Equal(g[i], want[i]) {
								t.Fatalf("%s: gathered block %d corrupted", name, i)
							}
						}
					} else if g != nil {
						t.Fatalf("%s: non-root %d returned blocks", name, rk)
					}
				}
			}
		}
	}
}

// Property: scatter+gather over random sizes, roots and algorithms is
// the identity.
func TestScatterGatherProperty(t *testing.T) {
	f := func(n8, root8, bs8 uint8, binomial bool) bool {
		n := int(n8%12) + 1
		root := int(root8) % n
		bs := int(bs8%128) + 1
		algs := Algorithms()
		alg := algs[int(bs8)%len(algs)]
		_ = binomial
		blocks := mkBlocks(n, bs)
		ok := true
		_, err := Run(testConfig(n), func(r *Rank) {
			mine := r.Scatter(alg, root, blocks)
			out := r.Gather(alg, root, mine)
			if r.Rank() == root {
				for i := range out {
					if !bytes.Equal(out[i], blocks[i]) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		data := []byte("broadcast payload")
		_, err := Run(testConfig(n), func(r *Rank) {
			var in []byte
			if r.Rank() == 2%n {
				in = data
			}
			got := r.Bcast(2%n, in)
			if !bytes.Equal(got, data) {
				t.Errorf("n=%d rank %d: bcast got %q", n, r.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceSum(t *testing.T) {
	const n = 8
	sum := func(a, b []byte) []byte {
		out := make([]byte, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	_, err := Run(testConfig(n), func(r *Rank) {
		block := []byte{byte(r.Rank()), 1}
		got := r.Reduce(0, block, sum)
		if r.Rank() == 0 {
			want := []byte{byte(0 + 1 + 2 + 3 + 4 + 5 + 6 + 7), n}
			if !bytes.Equal(got, want) {
				t.Errorf("reduce = %v, want %v", got, want)
			}
		} else if got != nil {
			t.Errorf("non-root got %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		_, err := Run(testConfig(n), func(r *Rank) {
			out := r.Allgather([]byte{byte(r.Rank() * 3)})
			for i := range out {
				if len(out[i]) != 1 || out[i][0] != byte(i*3) {
					t.Errorf("n=%d rank %d: allgather[%d] = %v", n, r.Rank(), i, out[i])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAlltoall(t *testing.T) {
	const n = 6
	_, err := Run(testConfig(n), func(r *Rank) {
		send := make([][]byte, n)
		for i := range send {
			send[i] = []byte{byte(r.Rank()), byte(i)}
		}
		out := r.Alltoall(send)
		for j := range out {
			want := []byte{byte(j), byte(r.Rank())}
			if !bytes.Equal(out[j], want) {
				t.Errorf("rank %d: from %d got %v, want %v", r.Rank(), j, out[j], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierHasNetworkCost(t *testing.T) {
	const n = 8
	after := make([]time.Duration, n)
	_, err := Run(testConfig(n), func(r *Rank) {
		r.Barrier()
		after[r.Rank()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range after {
		if at == 0 {
			t.Fatalf("rank %d passed barrier at t=0; dissemination must cost time", i)
		}
	}
}

func TestHardSyncAligns(t *testing.T) {
	const n = 4
	times := make([]time.Duration, n)
	_, err := Run(testConfig(n), func(r *Rank) {
		r.Sleep(time.Duration(r.Rank()) * time.Millisecond)
		r.HardSync()
		times[r.Rank()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if times[i] != times[0] {
			t.Fatalf("hard sync misaligned: %v", times)
		}
	}
	if times[0] != 3*time.Millisecond {
		t.Fatalf("sync at %v, want 3ms", times[0])
	}
}

// Consecutive collectives must not cross-match even when ranks drift.
func TestBackToBackCollectivesIsolated(t *testing.T) {
	const n = 8
	blocksA := mkBlocks(n, 32)
	blocksB := mkBlocks(n, 32)
	for i := range blocksB {
		for j := range blocksB[i] {
			blocksB[i][j] ^= 0xFF
		}
	}
	_, err := Run(testConfig(n), func(r *Rank) {
		a := r.Scatter(Binomial, 0, blocksA)
		b := r.Scatter(Binomial, 0, blocksB)
		if !bytes.Equal(a, blocksA[r.Rank()]) || !bytes.Equal(b, blocksB[r.Rank()]) {
			t.Errorf("rank %d: collectives cross-matched", r.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The linear scatter root must be free after (n-1) sender costs — eager
// sends, serialized on the root CPU only.
func TestLinearScatterRootTiming(t *testing.T) {
	const n, bs = 8, 10000
	cfg := testConfig(n)
	var rootDone time.Duration
	res, err := Run(cfg, func(r *Rank) {
		blocks := mkBlocks(n, bs)
		r.Scatter(Linear, 0, blocks)
		if r.Rank() == 0 {
			rootDone = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nd := cfg.Cluster.Nodes[0]
	per := nd.C + time.Duration(float64(bs)*nd.T*float64(time.Second))
	want := 7 * per
	if rootDone != want {
		t.Fatalf("root free at %v, want %v", rootDone, want)
	}
	if res.Duration <= rootDone {
		t.Fatalf("job end %v should exceed root-free time %v (wire + receive outstanding)", res.Duration, rootDone)
	}
}

// Binomial scatter must finish sooner than linear for small messages on
// a homogeneous cluster (log n latency terms instead of n-1 serialized
// root sends).
func TestBinomialBeatsLinearForSmallMessages(t *testing.T) {
	const n = 16
	run := func(alg Alg) time.Duration {
		res, err := Run(testConfig(n), func(r *Rank) {
			r.Scatter(alg, 0, mkBlocks(n, 64))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	lin, bin := run(Linear), run(Binomial)
	if bin >= lin {
		t.Fatalf("binomial (%v) should beat linear (%v) for small blocks", bin, lin)
	}
}

func TestRunErrorsOnNilCluster(t *testing.T) {
	if _, err := Run(Config{}, func(r *Rank) {}); err == nil {
		t.Fatal("nil cluster should error")
	}
}

func TestScatterValidation(t *testing.T) {
	_, err := Run(testConfig(4), func(r *Rank) {
		blocks := mkBlocks(4, 8)
		blocks[2] = blocks[2][:4] // unequal size
		r.Scatter(Linear, 0, blocks)
	})
	if err == nil {
		t.Fatal("unequal blocks should fail")
	}
}

func TestResultCounters(t *testing.T) {
	res, err := Run(testConfig(4), func(r *Rank) {
		r.Scatter(Linear, 0, mkBlocks(4, 100))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Messages != 3 {
		t.Fatalf("messages = %d, want 3", res.Net.Messages)
	}
	if res.Net.Bytes != 300 {
		t.Fatalf("bytes = %d, want 300", res.Net.Bytes)
	}
}

// A rank skipping a collective must surface as a deadlock error, not a
// hang: the engine detects processes blocked with no pending events.
// (A skipped *bcast* would NOT deadlock — eager sends complete and the
// stray message just sits in the mailbox; a gather's root genuinely
// waits for the missing contribution.)
func TestMismatchedCollectiveDeadlocks(t *testing.T) {
	_, err := Run(testConfig(4), func(r *Rank) {
		if r.Rank() == 3 {
			return // skips the collective
		}
		r.Gather(Linear, 0, []byte("x"))
	})
	if err == nil {
		t.Fatal("mismatched collective should fail")
	}
	// And the eager-bcast non-deadlock, for contrast.
	res, err := Run(testConfig(4), func(r *Rank) {
		if r.Rank() == 3 {
			return
		}
		r.Bcast(0, []byte("x"))
	})
	if err != nil {
		t.Fatalf("skipped bcast should not deadlock (eager sends): %v", err)
	}
	if res.Net.Messages == 0 {
		t.Fatal("bcast traffic missing")
	}
}

// TestCollectivesCopyOnlyAtMerges gates the rule that collectives lend
// payloads and copy only where a tree merges buffers. On Table I under
// LAM, root 0, 64 KiB blocks, a warm gather may allocate at most the
// batches of the non-root ranks that have children, and a warm scatter
// at most the root's batches for children whose subtree holds more
// than one rank, each plus 1 KiB for the result slice and bookkeeping.
// Warm bytes per operation are the TotalAlloc difference between the
// ends of operations 20 and 40 of one job, over 20. Reading both inside
// one job leaves out the job's set-up, whose goroutine start-up varies
// by kilobytes from run to run under the race detector. Each operation
// ends at a HardSync, as a measured repetition does (mpib.Measure):
// without it eager senders run operations ahead of the root, and the
// simulator's message and event pools grow with the job.
func TestCollectivesCopyOnlyAtMerges(t *testing.T) {
	const bs, root, slack = 64 << 10, 0, 1 << 10
	cfg := Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1}
	n := cfg.Cluster.N()
	block := make([]byte, bs)
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, bs)
	}
	// perOp returns the warm bytes one call of op allocates.
	perOp := func(op func(r *Rank)) float64 {
		var at [2]runtime.MemStats // after operations 20 and 40
		_, err := Run(cfg, func(r *Rank) {
			for i := 1; i <= 40; i++ {
				op(r)
				r.HardSync()
				if i%20 == 0 {
					if r.Rank() == 0 {
						runtime.ReadMemStats(&at[i/20-1])
					}
					r.HardSync() // no rank starts the next operation before the reading
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(int64(at[1].TotalAlloc-at[0].TotalAlloc)) / 20
	}
	for _, alg := range Algorithms() {
		tree := alg.Tree(n, root)
		gatherMax, scatterMax := slack, slack
		for r := 0; r < n; r++ {
			if r != root && len(tree.Children[r]) > 0 {
				gatherMax += tree.SubtreeSize[r] * bs
			}
		}
		for _, c := range tree.Children[root] {
			if tree.SubtreeSize[c] > 1 {
				scatterMax += tree.SubtreeSize[c] * bs
			}
		}
		gather := perOp(func(r *Rank) { r.Gather(alg, root, block) })
		scatter := perOp(func(r *Rank) {
			var in [][]byte
			if r.Rank() == root {
				in = blocks
			}
			r.Scatter(alg, root, in)
		})
		t.Logf("%v: %.0f B per gather (at most %d), %.0f B per scatter (at most %d)", alg, gather, gatherMax, scatter, scatterMax)
		if gather > float64(gatherMax) {
			t.Errorf("%v gather allocates %.0f B per operation, want at most %d", alg, gather, gatherMax)
		}
		if scatter > float64(scatterMax) {
			t.Errorf("%v scatter allocates %.0f B per operation, want at most %d", alg, scatter, scatterMax)
		}
	}
}
