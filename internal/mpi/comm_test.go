package mpi

import (
	"bytes"
	"testing"
)

func TestCommOfValidation(t *testing.T) {
	_, err := Run(testConfig(4), func(r *Rank) {
		if _, err := r.CommOf(nil); err == nil {
			t.Error("empty comm should fail")
		}
		if _, err := r.CommOf([]int{0, 0, 1}); err == nil {
			t.Error("duplicate member should fail")
		}
		if _, err := r.CommOf([]int{0, 9}); err == nil {
			t.Error("out-of-range member should fail")
		}
		if r.Rank() == 3 {
			if _, err := r.CommOf([]int{0, 1}); err == nil {
				t.Error("non-member should fail")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommRanksAndTranslation(t *testing.T) {
	_, err := Run(testConfig(6), func(r *Rank) {
		members := []int{5, 2, 3}
		in := false
		for _, m := range members {
			if m == r.Rank() {
				in = true
			}
		}
		if !in {
			return
		}
		c, err := r.CommOf(members)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Size() != 3 {
			t.Errorf("size = %d", c.Size())
		}
		if c.World(0) != 5 || c.World(2) != 3 {
			t.Error("world translation broken")
		}
		// Comm rank 0 is world 5.
		if r.Rank() == 5 && c.Rank() != 0 {
			t.Errorf("world 5 comm rank = %d", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSendRecv(t *testing.T) {
	_, err := Run(testConfig(5), func(r *Rank) {
		members := []int{4, 1}
		if r.Rank() != 4 && r.Rank() != 1 {
			return
		}
		c, err := r.CommOf(members)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 { // world 4
			c.Send(1, 7, []byte("via comm"))
		} else {
			data, st := c.Recv(0, 7)
			if string(data) != "via comm" {
				t.Errorf("payload = %q", data)
			}
			if st.Source != 0 {
				t.Errorf("status source = %d, want comm rank 0", st.Source)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommCollectivesOnSubsets(t *testing.T) {
	// Two disjoint communicators run scatters side by side; the world
	// ranks outside both do nothing.
	const n = 8
	groupA := []int{0, 2, 4}
	groupB := []int{1, 3, 5, 7}
	_, err := Run(testConfig(n), func(r *Rank) {
		pick := func(members []int) []int {
			for _, m := range members {
				if m == r.Rank() {
					return members
				}
			}
			return nil
		}
		var members []int
		if g := pick(groupA); g != nil {
			members = g
		} else if g := pick(groupB); g != nil {
			members = g
		} else {
			return // world rank 6 sits out
		}
		c, err := r.CommOf(members)
		if err != nil {
			t.Error(err)
			return
		}
		blocks := make([][]byte, c.Size())
		for i := range blocks {
			blocks[i] = bytes.Repeat([]byte{byte(len(members)*16 + i)}, 32)
		}
		mine := c.Scatter(Binomial, 0, blocks)
		if !bytes.Equal(mine, blocks[c.Rank()]) {
			t.Errorf("world %d comm scatter corrupted", r.Rank())
		}
		out := c.Gather(Linear, 0, mine)
		if c.Rank() == 0 {
			for i := range out {
				if !bytes.Equal(out[i], blocks[i]) {
					t.Errorf("comm gather block %d corrupted", i)
				}
			}
		}
		got := c.Bcast(1, mine)
		_ = got
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommBcastPayload(t *testing.T) {
	const n = 6
	_, err := Run(testConfig(n), func(r *Rank) {
		members := []int{5, 0, 2, 3}
		in := false
		for _, m := range members {
			if m == r.Rank() {
				in = true
			}
		}
		if !in {
			return
		}
		c, err := r.CommOf(members)
		if err != nil {
			t.Error(err)
			return
		}
		var data []byte
		if c.Rank() == 2 { // world rank 2
			data = []byte("from comm rank 2")
		}
		got := c.Bcast(2, data)
		if string(got) != "from comm rank 2" {
			t.Errorf("world %d got %q", r.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSequencesIsolated(t *testing.T) {
	// Consecutive collectives on the same comm must not cross-match.
	const n = 4
	_, err := Run(testConfig(n), func(r *Rank) {
		c, err := r.CommOf([]int{0, 1, 2, 3})
		if err != nil {
			t.Error(err)
			return
		}
		a := c.Bcast(0, payloadIf(c.Rank() == 0, "first"))
		b := c.Bcast(0, payloadIf(c.Rank() == 0, "second"))
		if string(a) != "first" || string(b) != "second" {
			t.Errorf("cross-matched: %q %q", a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func payloadIf(cond bool, s string) []byte {
	if cond {
		return []byte(s)
	}
	return nil
}

// Distinct member sets never share a tag, whatever their members: the
// world numbers each set as it is first built. {0,1} and {0,1,30} once
// folded to the same tag block, so rank 1, entering the second set's
// broadcast first, took the first set's message there.
func TestCommDistinctSetsDoNotCrossMatch(t *testing.T) {
	a, b := []int{0, 1}, []int{0, 1, 30}
	_, err := Run(testConfig(32), func(r *Rank) {
		comm := func(members []int) *Comm {
			c, err := r.CommOf(members)
			if err != nil {
				panic(err)
			}
			return c
		}
		switch r.Rank() {
		case 0:
			comm(a).Bcast(0, []byte("from A"))
			comm(b).Bcast(0, []byte("from B"))
		case 1:
			ca, cb := comm(a), comm(b)
			gotB := cb.Bcast(0, nil)
			gotA := ca.Bcast(0, nil)
			if string(gotA) != "from A" || string(gotB) != "from B" {
				t.Errorf("rank 1 received %q on %v and %q on %v", gotA, a, gotB, b)
			}
		case 30:
			if got := comm(b).Bcast(0, nil); string(got) != "from B" {
				t.Errorf("rank 30 received %q on %v", got, b)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
