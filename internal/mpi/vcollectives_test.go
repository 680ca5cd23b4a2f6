package mpi

import (
	"bytes"
	"testing"
	"testing/quick"
)

// mkVBlocks builds n recognisable blocks with the given sizes.
func mkVBlocks(counts []int) [][]byte {
	out := make([][]byte, len(counts))
	for i, c := range counts {
		b := make([]byte, c)
		for j := range b {
			b[j] = byte(i*37 + j)
		}
		out[i] = b
	}
	return out
}

func TestScattervGathervRoundTrip(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, root := range []int{0, 3} {
			n := 6
			counts := []int{100, 0, 2500, 64, 1, 900}
			blocks := mkVBlocks(counts)
			want := mkVBlocks(counts) // a copy no collective can return a view of
			var rootGot [][]byte
			_, err := Run(testConfig(n), func(r *Rank) {
				// in is this rank's input: blocks at the root, and
				// elsewhere the block it gathers.
				var in [][]byte
				if r.Rank() == root {
					in = blocks
				}
				before := digest(in)
				mine := r.Scatterv(alg, root, in, counts)
				if !bytes.Equal(mine, want[r.Rank()]) {
					t.Errorf("%v root=%d: rank %d got wrong block (%d bytes, want %d)",
						alg, root, r.Rank(), len(mine), counts[r.Rank()])
				}
				if r.Rank() != root {
					in = [][]byte{mine}
					before = digest(in)
				}
				out := r.Gatherv(alg, root, mine, counts)
				if digest(in) != before {
					t.Errorf("%v root=%d: rank %d's input changed", alg, root, r.Rank())
				}
				if r.Rank() == root {
					rootGot = out
				} else if out != nil {
					t.Errorf("non-root got data")
				}
			})
			if err != nil {
				t.Fatalf("%v root=%d: %v", alg, root, err)
			}
			for i := range want {
				if !bytes.Equal(rootGot[i], want[i]) {
					t.Fatalf("%v root=%d: block %d corrupted", alg, root, i)
				}
			}
		}
	}
}

// Property: scatterv+gatherv with random sizes is the identity for
// every algorithm.
func TestScattervGathervProperty(t *testing.T) {
	f := func(n8, root8, alg8 uint8, sizes []uint16) bool {
		n := int(n8%10) + 1
		root := int(root8) % n
		algs := Algorithms()
		alg := algs[int(alg8)%len(algs)]
		counts := make([]int, n)
		for i := range counts {
			if i < len(sizes) {
				counts[i] = int(sizes[i] % 4096)
			} else {
				counts[i] = i * 7
			}
		}
		blocks := mkVBlocks(counts)
		ok := true
		_, err := Run(testConfig(n), func(r *Rank) {
			mine := r.Scatterv(alg, root, blocks, counts)
			if !bytes.Equal(mine, blocks[r.Rank()]) {
				ok = false
			}
			out := r.Gatherv(alg, root, mine, counts)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScattervValidation(t *testing.T) {
	// Mismatched counts length.
	_, err := Run(testConfig(3), func(r *Rank) {
		r.Scatterv(Linear, 0, mkVBlocks([]int{1, 2, 3}), []int{1, 2})
	})
	if err == nil {
		t.Fatal("short counts should fail")
	}
	// Block/count mismatch at the root.
	_, err = Run(testConfig(3), func(r *Rank) {
		blocks := mkVBlocks([]int{1, 2, 3})
		blocks[1] = blocks[1][:1]
		r.Scatterv(Linear, 0, blocks, []int{1, 2, 3})
	})
	if err == nil {
		t.Fatal("mismatched block size should fail")
	}
}

func TestGathervValidation(t *testing.T) {
	_, err := Run(testConfig(3), func(r *Rank) {
		r.Gatherv(Linear, 0, make([]byte, 5), []int{1, 1, 1})
	})
	if err == nil {
		t.Fatal("wrong own-block size should fail")
	}
}

// Proportional distribution: a faster processor receives a bigger
// share, and the variable scatter should complete no later than the
// equal-block scatter of the same total volume when the root is slow…
// here we only assert volume accounting via the network counters.
func TestScattervTrafficAccounting(t *testing.T) {
	n := 4
	counts := []int{0, 1000, 2000, 3000}
	res, err := Run(testConfig(n), func(r *Rank) {
		r.Scatterv(Linear, 0, mkVBlocks(counts), counts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Bytes != 6000 {
		t.Fatalf("bytes = %d, want 6000", res.Net.Bytes)
	}
	if res.Net.Messages != 3 {
		t.Fatalf("messages = %d, want 3", res.Net.Messages)
	}
}
