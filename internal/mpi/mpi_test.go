package mpi

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
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

// TestWildcardRecvSkipsCollectiveTraffic pins MPI's rule that a
// wildcard-tag receive never takes a collective's message. Rank 0
// waits on (AnySource, AnyTag) while rank 2's gather block already
// sits in its mailbox; it must get rank 1's later user message, and
// the gather must then complete. Recv, RecvTimeout and a
// communicator's Recv (beside the communicator's gather) all obey it.
func TestWildcardRecvSkipsCollectiveTraffic(t *testing.T) {
	cases := []struct {
		name string
		comm bool // receive and gather on a communicator of all ranks
		recv func(r *Rank, c *Comm) ([]byte, Status, error)
	}{
		{"recv", false, func(r *Rank, _ *Comm) ([]byte, Status, error) {
			data, st := r.Recv(AnySource, AnyTag)
			return data, st, nil
		}},
		{"recv-timeout", false, func(r *Rank, _ *Comm) ([]byte, Status, error) {
			return r.RecvTimeout(AnySource, AnyTag, time.Second)
		}},
		{"comm-recv", true, func(_ *Rank, c *Comm) ([]byte, Status, error) {
			data, st := c.Recv(AnySource, AnyTag)
			return data, st, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				data    []byte
				st      Status
				recvErr error
			)
			_, err := Run(Config{Cluster: cluster.Table1().Prefix(3)}, func(r *Rank) {
				c, err := r.CommOf([]int{0, 1, 2})
				if err != nil {
					panic(err)
				}
				switch r.Rank() {
				case 0:
					data, st, recvErr = tc.recv(r, c)
				case 1:
					r.Sleep(time.Millisecond)
					r.Send(0, 5, []byte("user"))
				}
				if tc.comm {
					c.Gather(Linear, 0, []byte{0})
				} else {
					r.Gather(Linear, 0, []byte{0})
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if recvErr != nil {
				t.Fatalf("receive: %v", recvErr)
			}
			if string(data) != "user" || st != (Status{Source: 1, Tag: 5, Bytes: 4}) {
				t.Fatalf("wildcard receive got %q with %+v, want rank 1's \"user\" with tag 5", data, st)
			}
		})
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
	shapes = append(shapes, shape{"3-ary",
		func(r *Rank, root int, blocks [][]byte) []byte { return r.ScatterShape(Binary, 3, 0, root, 64, blocks) },
		func(r *Rank, root int, block []byte) [][]byte { return r.GatherShape(Binary, 3, 0, root, block) }})
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

// TestCollectivesCopyNoPayload gates the rule that gather and scatter
// move no payload bytes: batches travel as lists of block views, and a
// segmented collective lends whole blocks. On Table I under LAM, root
// 0, each case allocates the same warm bytes per operation, within
// 1 KiB, at 4 KiB and at 64 KiB blocks, where one copied block would
// already differ by 60 KiB. At both sizes a case allocates at most its
// header lists, 24 B per listed block, plus 1 KiB for the result slice
// and bookkeeping: an interior gather rank lists its subtree's blocks,
// and a scatter root all n once some child's subtree has several
// ranks. The cases are the four algorithms, a 3-ary tree, and a
// segmented gather and scatter with four segments at both sizes.
//
// Warm bytes per operation are the TotalAlloc difference between the
// ends of operations 20 and 40 of one job, over 20. Reading both inside
// one job leaves out the job's set-up, whose goroutine start-up varies
// by kilobytes from run to run under the race detector. Each operation
// ends at a HardSync, as a measured repetition does (mpib.Measure):
// without it eager senders run operations ahead of the root, and the
// simulator's message and event pools grow with the job.
func TestCollectivesCopyNoPayload(t *testing.T) {
	const root, slack = 0, 1 << 10
	cfg := Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1}
	n := cfg.Cluster.N()
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
	// listed returns the blocks the header lists of one gather or
	// scatter over tree hold.
	listed := func(tree *collective.Tree, gather bool) int {
		k := 0
		for r := 0; r < n; r++ {
			if gather && r != root && len(tree.Children[r]) > 0 {
				k += tree.SubtreeSize[r]
			}
			if !gather && r != root && tree.Parent[r] == root && tree.SubtreeSize[r] > 1 {
				k = n
			}
		}
		return k
	}
	// A case runs one gather or scatter of bs-byte blocks, the root's
	// in blocks, and lists at most lists blocks.
	type cse struct {
		name  string
		lists int
		op    func(r *Rank, bs int, blocks [][]byte)
	}
	var cases []cse
	for _, alg := range Algorithms() {
		tree := alg.Tree(n, root)
		cases = append(cases,
			cse{alg.String() + " gather", listed(tree, true), func(r *Rank, bs int, blocks [][]byte) { r.Gather(alg, root, blocks[r.Rank()]) }},
			cse{alg.String() + " scatter", listed(tree, false), func(r *Rank, bs int, blocks [][]byte) { r.Scatter(alg, root, blocks) }})
	}
	ternary := collective.ShapeTree(Binary, 3, n, root)
	binomial := Binomial.Tree(n, root)
	cases = append(cases,
		cse{"3-ary gather", listed(ternary, true), func(r *Rank, bs int, blocks [][]byte) { r.GatherShape(Binary, 3, 0, root, blocks[r.Rank()]) }},
		cse{"3-ary scatter", listed(ternary, false), func(r *Rank, bs int, blocks [][]byte) { r.ScatterShape(Binary, 3, 0, root, bs, blocks) }},
		cse{"segmented binomial gather", 4 * listed(binomial, true), func(r *Rank, bs int, blocks [][]byte) {
			r.GatherShape(Binomial, 0, bs/4, root, blocks[r.Rank()])
		}},
		cse{"segmented binomial scatter", 4 * listed(binomial, false), func(r *Rank, bs int, blocks [][]byte) {
			r.ScatterShape(Binomial, 0, bs/4, root, bs, blocks)
		}})
	for _, c := range cases {
		var bytesAt [2]float64
		for k, bs := range []int{4 << 10, 64 << 10} {
			blocks := make([][]byte, n)
			for i := range blocks {
				blocks[i] = make([]byte, bs)
			}
			bytesAt[k] = perOp(func(r *Rank) { c.op(r, bs, blocks) })
		}
		most := 24*c.lists + slack
		t.Logf("%s: %.0f B per operation at 4 KiB blocks, %.0f B at 64 KiB (at most %d)", c.name, bytesAt[0], bytesAt[1], most)
		if d := bytesAt[1] - bytesAt[0]; d > slack || d < -slack {
			t.Errorf("%s allocates %.0f B per operation at 4 KiB blocks and %.0f B at 64 KiB, want equal within %d B", c.name, bytesAt[0], bytesAt[1], slack)
		}
		if max(bytesAt[0], bytesAt[1]) > float64(most) {
			t.Errorf("%s allocates %.0f B per operation at 4 KiB blocks and %.0f B at 64 KiB, want at most %d", c.name, bytesAt[0], bytesAt[1], most)
		}
	}
}

// ScatterShape and GatherShape reject bad input as an *InputError: a
// root outside the job before any tree is built, whatever the degree;
// root blocks of any size but m, segmented or not; a rank whose m
// disagrees with the root's, which would otherwise get bytes of the
// next rank's block when the root's blocks share one buffer; and a
// rank whose tree disagrees with the root's.
func TestShapeRejectsBadInput(t *testing.T) {
	cfg := Config{Cluster: cluster.Table1().Prefix(4), Profile: cluster.LAM(), Seed: 1}
	const m = 3 << 10
	// blocksOf returns 4 blocks of size bytes, views of one buffer.
	blocksOf := func(size int) [][]byte {
		buf := make([]byte, 4*size)
		blocks := make([][]byte, 4)
		for i := range blocks {
			blocks[i] = buf[i*size : (i+1)*size]
		}
		return blocks
	}
	// mOf returns the block size rank 2 passes, and want elsewhere.
	mOf := func(r *Rank, want, rank2 int) int {
		if r.Rank() == 2 {
			return rank2
		}
		return want
	}
	cases := []struct {
		name   string
		body   func(r *Rank)
		reason string
	}{
		{"3ary-scatter-bad-root", func(r *Rank) {
			r.ScatterShape(Binary, 3, 0, 7, m, blocksOf(m))
		}, "root 7 out of range"},
		{"3ary-gather-bad-root", func(r *Rank) {
			r.GatherShape(Binary, 3, 0, 7, make([]byte, m))
		}, "root 7 out of range"},
		{"segmented-scatter-short-blocks", func(r *Rank) {
			r.ScatterShape(Linear, 0, 1<<10, 0, m, blocksOf(2<<10))
		}, "root blocks have 2048 bytes, want 3072"},
		{"segmented-scatter-long-blocks", func(r *Rank) {
			r.ScatterShape(Linear, 0, 1<<10, 0, m, blocksOf(4<<10))
		}, "root blocks have 4096 bytes, want 3072"},
		{"scatter-long-blocks", func(r *Rank) {
			r.ScatterShape(Binomial, 0, 0, 0, m, blocksOf(4<<10))
		}, "root blocks have 4096 bytes, want 3072"},
		{"segmented-scatter-rank-m-disagrees", func(r *Rank) {
			r.ScatterShape(Linear, 0, 4096, 0, mOf(r, 10000, 12000), blocksOf(10000))
		}, "segment of 1808 bytes, want 3808"},
		{"scatter-rank-m-disagrees", func(r *Rank) {
			r.ScatterShape(Binomial, 0, 0, 0, mOf(r, m, 4<<10), blocksOf(m))
		}, "block of 3072 bytes, want 4096"},
		{"scatter-rank-tree-disagrees", func(r *Rank) {
			alg := Binomial
			if r.Rank() == 2 {
				alg = Linear
			}
			r.ScatterShape(alg, 0, 0, 0, m, blocksOf(m))
		}, "batch of 2 blocks, want one per rank of a 1-rank subtree"},
		{"gather-rank-tree-disagrees", func(r *Rank) {
			alg := Binomial
			if r.Rank() == 2 {
				alg = Linear
			}
			r.GatherShape(alg, 0, 0, 0, nil) // empty blocks pass every size check
		}, "batch from rank 2 has 1 blocks, want 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(cfg, c.body)
			var ie *InputError
			if !errors.As(err, &ie) || !strings.Contains(ie.Reason, c.reason) {
				t.Errorf("got %v, want an *InputError saying %q", err, c.reason)
			}
		})
	}
}

// A ScatterShape then a GatherShape lend whole blocks: every scattered
// block and every gathered entry is a view of the root's input block,
// equal to an independent copy byte for byte, and the input is
// unchanged afterwards. It holds for every algorithm and a 3-ary tree,
// unsegmented and in segments of 4 096 bytes (the last one short), at
// root 0 and at a root whose subtrees wrap past rank n-1.
func TestShapeLendsWholeBlocks(t *testing.T) {
	const m = 10000
	cfg := Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1}
	n := cfg.Cluster.N()
	rng := rand.New(rand.NewSource(1))
	in := make([][]byte, n)
	want := make([][]byte, n) // an independent copy
	for i := range in {
		in[i] = make([]byte, m)
		rng.Read(in[i])
		want[i] = bytes.Clone(in[i])
	}
	hash := func() [32]byte { return sha256.Sum256(bytes.Join(in, nil)) }
	before := hash()
	type shape struct {
		alg    Alg
		degree int
	}
	var shapes []shape
	for _, alg := range Algorithms() {
		shapes = append(shapes, shape{alg, 0})
	}
	shapes = append(shapes, shape{Binary, 3})
	for _, sh := range shapes {
		for _, segment := range []int{0, 4096} {
			for _, root := range []int{0, n - 3} {
				name := fmt.Sprintf("%v/degree %d/segment %d/root %d", sh.alg, sh.degree, segment, root)
				lent := func(what string, got []byte, i int) {
					if len(got) != m || &got[0] != &in[i][0] {
						t.Errorf("%s: %s is not a view of block %d", name, what, i)
					} else if !bytes.Equal(got, want[i]) {
						t.Errorf("%s: %s differs from block %d", name, what, i)
					}
				}
				_, err := Run(cfg, func(r *Rank) {
					var blocks [][]byte
					if r.Rank() == root {
						blocks = in
					}
					mine := r.ScatterShape(sh.alg, sh.degree, segment, root, m, blocks)
					lent(fmt.Sprintf("rank %d's scattered block", r.Rank()), mine, r.Rank())
					out := r.GatherShape(sh.alg, sh.degree, segment, root, mine)
					if r.Rank() != root {
						if out != nil {
							t.Errorf("%s: rank %d gathered %d blocks", name, r.Rank(), len(out))
						}
						return
					}
					if len(out) != n {
						t.Errorf("%s: root gathered %d blocks, want %d", name, len(out), n)
						return
					}
					for i, b := range out {
						lent(fmt.Sprintf("gathered entry %d", i), b, i)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if hash() != before {
					t.Fatalf("%s: the input changed", name)
				}
			}
		}
	}
}
