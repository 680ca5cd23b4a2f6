package estimate

import (
	"fmt"
	"testing"
	"testing/quick"
)

// validatePairRounds reports a round that reuses a processor or a
// schedule that does not cover every pair exactly once.
func validatePairRounds(n int, rounds [][]Pair) error {
	seen := map[Pair]bool{}
	for ri, round := range rounds {
		used := make([]bool, n)
		for _, p := range round {
			if p.I == p.J || p.I < 0 || p.J >= n {
				return fmt.Errorf("estimate: bad pair %v in round %d", p, ri)
			}
			if used[p.I] || used[p.J] {
				return fmt.Errorf("estimate: processor reused in round %d", ri)
			}
			used[p.I], used[p.J] = true, true
			if seen[p] {
				return fmt.Errorf("estimate: pair %v scheduled twice", p)
			}
			seen[p] = true
		}
	}
	want := n * (n - 1) / 2
	if len(seen) != want {
		return fmt.Errorf("estimate: scheduled %d pairs, want %d", len(seen), want)
	}
	return nil
}

func TestAllPairsCount(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16} {
		want := n * (n - 1) / 2
		if got := len(AllPairs(n)); got != want {
			t.Fatalf("n=%d: %d pairs, want %d", n, got, want)
		}
	}
}

func TestAllTripletsCount(t *testing.T) {
	for _, n := range []int{3, 4, 8, 16} {
		want := n * (n - 1) * (n - 2) / 6
		if got := len(AllTriplets(n)); got != want {
			t.Fatalf("n=%d: %d triplets, want %d", n, got, want)
		}
	}
}

func TestPairRoundsEven(t *testing.T) {
	rounds := PairRounds(16)
	if len(rounds) != 15 {
		t.Fatalf("rounds = %d, want 15", len(rounds))
	}
	for i, r := range rounds {
		if len(r) != 8 {
			t.Fatalf("round %d has %d pairs, want 8", i, len(r))
		}
	}
	if err := validatePairRounds(16, rounds); err != nil {
		t.Fatal(err)
	}
}

func TestPairRoundsOdd(t *testing.T) {
	rounds := PairRounds(7)
	if err := validatePairRounds(7, rounds); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 7 {
		t.Fatalf("odd tournament rounds = %d, want 7", len(rounds))
	}
}

func TestPairRoundsTiny(t *testing.T) {
	if PairRounds(1) != nil {
		t.Fatal("n=1 should have no rounds")
	}
	rounds := PairRounds(2)
	if len(rounds) != 1 || len(rounds[0]) != 1 {
		t.Fatalf("n=2 rounds = %v", rounds)
	}
}

// Property: pair rounds are a disjoint exact cover for any n.
func TestPairRoundsProperty(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%30) + 2
		return validatePairRounds(n, PairRounds(n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTripletRoundsCoverAndDisjoint(t *testing.T) {
	for _, n := range []int{3, 5, 9, 16} {
		triplets := AllTriplets(n)
		rounds := tripletSchedule(n, triplets, true)
		seen := map[Triplet]bool{}
		for ri, round := range rounds {
			used := make([]bool, n)
			if len(round) > n/3 {
				t.Fatalf("n=%d round %d has %d triples > n/3", n, ri, len(round))
			}
			for _, i := range round {
				tr := triplets[i]
				for _, x := range []int{tr.I, tr.J, tr.K} {
					if used[x] {
						t.Fatalf("n=%d round %d reuses processor %d", n, ri, x)
					}
					used[x] = true
				}
				if seen[tr] {
					t.Fatalf("triple %v scheduled twice", tr)
				}
				seen[tr] = true
			}
		}
		if len(seen) != n*(n-1)*(n-2)/6 {
			t.Fatalf("n=%d: covered %d triples", n, len(seen))
		}
	}
}

func TestTripletRoundsParallelismFor16(t *testing.T) {
	rounds := tripletSchedule(16, AllTriplets(16), true)
	serial := len(AllTriplets(16)) // 560
	if len(rounds) >= serial {
		t.Fatalf("parallel rounds (%d) should be far fewer than %d", len(rounds), serial)
	}
	// With 5 disjoint triples possible per round, expect ≲ 3× the lower
	// bound of 112 rounds.
	if len(rounds) > 3*serial/5 {
		t.Fatalf("greedy packing too loose: %d rounds", len(rounds))
	}
}

func TestSampleTripletsCoverage(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		for _, k := range []int{1, 3, 5} {
			ts := SampleTriplets(n, k)
			cov := make([]int, n)
			seen := map[Triplet]bool{}
			for _, tr := range ts {
				if tr.I >= tr.J || tr.J >= tr.K {
					t.Fatalf("non-canonical triplet %v", tr)
				}
				if seen[tr] {
					t.Fatalf("duplicate triplet %v", tr)
				}
				seen[tr] = true
				cov[tr.I]++
				cov[tr.J]++
				cov[tr.K]++
			}
			// Achievable coverage caps at C(n-1,2) per processor.
			want := k
			if cap := (n - 1) * (n - 2) / 2; want > cap {
				want = cap
			}
			for p, c := range cov {
				if c < want {
					t.Fatalf("n=%d k=%d: processor %d covered %d times, want ≥ %d", n, k, p, c, want)
				}
			}
			full := n * (n - 1) * (n - 2) / 6
			if k <= 2 && len(ts) >= full {
				t.Fatalf("n=%d k=%d: sampling did not reduce the set (%d of %d)", n, k, len(ts), full)
			}
		}
	}
	// Degenerate inputs.
	if SampleTriplets(2, 3) != nil || SampleTriplets(5, 0) != nil {
		t.Fatal("degenerate inputs should return nil")
	}
	// Saturating k returns the full set.
	if got := len(SampleTriplets(5, 100)); got != 10 {
		t.Fatalf("saturated sample = %d, want C(5,3)=10", got)
	}
}
