package simnet

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// scanMsg is one pending message of the reference mailbox.
type scanMsg struct{ id, src, tag int }

// scanBox is the reference mailbox: every pending message in one
// arrival-ordered slice, and a receive takes the first match.
type scanBox []scanMsg

// find returns the index of the first pending message matching (src,
// tag), or -1. AnyTag matches non-negative tags only.
func (b scanBox) find(src, tag int) int {
	for i, m := range b {
		if (src == AnySource || m.src == src) && (tag == AnyTag && m.tag >= 0 || m.tag == tag) {
			return i
		}
	}
	return -1
}

// TestMailboxMatchesFirstMatchScan is the tag-indexed mailbox's oracle.
// Four senders deliver messages with shared tags, negative ones
// included, to node 0 at random instants, several of them at the same
// instant, while node 0 interleaves receives (non-blocking and
// blocking, specific and wildcard source and tag, selectors that match
// nothing), Probes and Pendings. Each is checked against scanBox, fed
// in the network's own arrival order: every message has a distinct
// size, and the wire span that its arrival emits names it. At the end
// node 0 crashes with messages still pending, and Counters.BlackHole
// must count every one.
func TestMailboxMatchesFirstMatchScan(t *testing.T) {
	var total scanCoverage
	for seed := int64(1); seed <= 40; seed++ {
		c := checkMailboxAgainstScan(t, seed)
		if c.blackHoled == 0 {
			t.Fatalf("seed %d: the crash found node 0's mailbox empty", seed)
		}
		total.took += c.took
		total.wildTook += c.wildTook
		total.timedOut += c.timedOut
		total.together += c.together
	}
	if total.wildTook < 100 || total.timedOut < 100 || total.together < 100 {
		t.Fatalf("too little coverage: %+v", total)
	}
}

// scanCoverage counts what one run of checkMailboxAgainstScan did.
type scanCoverage struct {
	took, wildTook, timedOut int // receives, wildcard-tag receives, timeouts
	together                 int // arrivals at the previous arrival's instant
	blackHoled               int // messages pending at the crash
}

func checkMailboxAgainstScan(t *testing.T, seed int64) scanCoverage {
	const (
		senders  = 4
		perNode  = 16
		slot     = 100 * time.Microsecond
		slots    = 20
		stopRecv = 18 * slot // node 0's last operation starts before this
		settle   = 30 * slot // every message has arrived
		crashAt  = 40 * slot
	)
	tags := []int{-7, -2, 0, 1, 2, 3}
	srcSel := []int{AnySource, AnySource, 1, 2, 3, 4, 0}   // node 0 sends nothing
	tagSel := []int{AnyTag, AnyTag, -7, -2, 0, 1, 2, 3, 9} // tag 9 is never sent
	rng := rand.New(rand.NewSource(seed))

	// No per-byte cost: a message's arrival does not depend on its size,
	// so sends at one instant from distinct nodes arrive together.
	cl := cluster.Homogeneous(senders+1,
		cluster.NodeSpec{C: 10 * time.Microsecond},
		cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e12})
	eng := vtime.NewEngine()
	net, err := New(eng, cl, cluster.Ideal(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetFaults(&faults.Plan{Crashes: []faults.Crash{{Node: 0, At: crashAt}}}); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	net.SetObserver(tr)

	// Message id k has k bytes; tagOf and srcOf describe it (ids start
	// at 1).
	tagOf, srcOf := []int{0}, []int{0}
	for s := 1; s <= senders; s++ {
		at := make([]time.Duration, perNode)
		for i := range at {
			at[i] = time.Duration(rng.Intn(slots)) * slot
		}
		slices.Sort(at)
		ids := make([]int, perNode)
		for i := range ids {
			ids[i] = len(tagOf)
			tagOf = append(tagOf, tags[rng.Intn(len(tags))])
			srcOf = append(srcOf, s)
		}
		s := s
		eng.Go("sender", func(p *vtime.Proc) {
			for i, id := range ids {
				if d := at[i] - p.Now(); d > 0 {
					p.Sleep(d)
				}
				net.Send(p, s, 0, tagOf[id], make([]byte, id))
			}
		})
	}

	var (
		ref  scanBox
		seen int           // spans already read into ref
		last time.Duration // the latest arrival's instant
		cov  scanCoverage
	)
	// syncRef appends the messages that have arrived at node 0 since the
	// last call, in the order their wire spans were emitted.
	syncRef := func() {
		spans := tr.Spans()
		for _, sp := range spans[seen:] {
			if sp.Name == "wire" && sp.Dst == 0 {
				ref = append(ref, scanMsg{id: sp.Bytes, src: srcOf[sp.Bytes], tag: tagOf[sp.Bytes]})
				if sp.End == last {
					cov.together++
				}
				last = sp.End
			}
		}
		seen = len(spans)
	}
	eng.Go("receiver", func(p *vtime.Proc) {
		p.Sleep(slot / 2)
		for p.Now() < stopRecv {
			// Arrivals land on a 10 µs grid. Steps along it put some
			// operations on an arrival's instant, and steps of 0 put
			// several at one instant.
			const grid = 10 * time.Microsecond
			p.Sleep(time.Duration(rng.Intn(4))*2*grid + (grid-p.Now()%grid)%grid)
			src, tag := srcSel[rng.Intn(len(srcSel))], tagSel[rng.Intn(len(tagSel))]
			syncRef()
			switch op := rng.Intn(6); {
			case op == 0:
				if _, _, m := net.boxes[0].find(src, tag); (m != nil) != (ref.find(src, tag) >= 0) {
					t.Errorf("seed %d at %v: find(%d, %d) = %v, reference %v", seed, p.Now(), src, tag, m != nil, ref.find(src, tag) >= 0)
					return
				}
			case op == 1:
				if got := net.boxes[0].pending; got != len(ref) {
					t.Errorf("seed %d at %v: %d pending, reference %d", seed, p.Now(), got, len(ref))
					return
				}
			default:
				// Non-blocking (deadline now) or blocking until a
				// deadline off the arrivals' grid, so that no arrival
				// shares its instant.
				deadline := p.Now()
				if op >= 4 {
					deadline += time.Duration(1+rng.Intn(5))*2*grid + time.Nanosecond
				}
				msg, err := net.RecvDeadline(p, 0, src, tag, deadline)
				syncRef()
				i := ref.find(src, tag)
				if err != nil {
					var te *TimeoutError
					if !errors.As(err, &te) || i >= 0 {
						t.Errorf("seed %d at %v: receive (%d, %d) failed with %v; reference holds %+v",
							seed, p.Now(), src, tag, err, ref)
						return
					}
					cov.timedOut++
					continue
				}
				if i < 0 || msg.Size() != ref[i].id || msg.Src != ref[i].src || msg.Tag != ref[i].tag {
					t.Errorf("seed %d at %v: receive (%d, %d) got %d bytes from %d with tag %d; reference %+v",
						seed, p.Now(), src, tag, msg.Size(), msg.Src, msg.Tag, ref)
					return
				}
				ref = append(ref[:i], ref[i+1:]...)
				cov.took++
				if tag == AnyTag {
					cov.wildTook++
				}
			}
		}
		p.Sleep(settle - p.Now())
		syncRef()
		if got := net.boxes[0].pending; got != len(ref) {
			t.Errorf("seed %d: %d pending after the last arrival, reference %d", seed, got, len(ref))
		}
		cov.blackHoled = len(ref)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(tagOf)-1 != cov.took+cov.blackHoled {
		t.Fatalf("seed %d: %d messages sent, %d received and %d pending", seed, len(tagOf)-1, cov.took, cov.blackHoled)
	}
	if c := net.Counters(); c.Crashed != 1 || c.BlackHole != cov.blackHoled {
		t.Fatalf("seed %d: crash black-holed %d messages (crashes %d), want the %d pending", seed, c.BlackHole, c.Crashed, cov.blackHoled)
	}
	if got := net.boxes[0].pending; got != 0 {
		t.Fatalf("seed %d: %d messages pending after the crash", seed, got)
	}
	return cov
}

// TestDeepMailboxDrainZeroAlloc pins the tag-indexed mailbox's steady
// state, in the manner of vtime's TestCondBroadcastCycleZeroAlloc.
// In each round fifteen senders send node 0 one message per tag over
// 64 tags, and node 0 drains the 960 messages in descending tag order,
// naming each source, so its mailbox holds up to 64 tags' lists at
// once; a barrier ends the round. Once warm, a round allocates nothing:
// two runs that differ only in their round count allocate the same.
func TestDeepMailboxDrainZeroAlloc(t *testing.T) {
	const senders, tags = 15, 64
	cl := testCluster(senders + 1)
	run := func(rounds int) uint64 {
		eng := vtime.NewEngine()
		net, err := New(eng, cl, cluster.Ideal(), 1)
		if err != nil {
			t.Fatal(err)
		}
		b := vtime.NewBarrier(eng, senders+1)
		for s := 1; s <= senders; s++ {
			s := s
			eng.Go("sender", func(p *vtime.Proc) {
				for r := 0; r < rounds; r++ {
					for tag := 0; tag < tags; tag++ {
						net.Send(p, s, 0, tag, nil)
					}
					b.Wait(p)
				}
			})
		}
		eng.Go("receiver", func(p *vtime.Proc) {
			for r := 0; r < rounds; r++ {
				for tag := tags - 1; tag >= 0; tag-- {
					for s := 1; s <= senders; s++ {
						net.Recv(p, 0, s, tag)
					}
				}
				b.Wait(p)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run(2) // warm up the runtime (goroutine stacks, timer wheels)
	// The fewest allocations of three runs each: the runtime allocates
	// now and then on its own, a few times per run at most, while a
	// mailbox that allocates per message, per tag list or per round
	// costs at least 20 allocations more over the extra rounds.
	fewest := func(rounds int) uint64 {
		m := run(rounds)
		for i := 0; i < 2; i++ {
			m = min(m, run(rounds))
		}
		return m
	}
	const short, long = 2, 22
	base, allocs := fewest(short), fewest(long)
	if allocs > base+16 {
		t.Fatalf("%d extra rounds of %d messages over %d tags allocated %d times (%d vs %d); want none",
			long-short, senders*tags, tags, allocs-base, allocs, base)
	}
}
