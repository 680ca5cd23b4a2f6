package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf encoder for hand-built profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// handProfile encodes a gzip-compressed profile whose samples land in
// known layers. Sample stacks are leaf first; location 2 carries an
// inlined frame (mpi inlined into mpib) to exercise multi-line
// locations, and sample values mix packed and unpacked encodings.
func handProfile(t *testing.T) []byte {
	strs := []string{"",
		"runtime.memmove",                        // 1
		"repro/internal/mpi.(*Rank).gatherTree",  // 2
		"repro/internal/mpib.Measure",            // 3
		"net/http.(*conn).serve",                 // 4
		"runtime.gcBgMarkWorker",                 // 5
		"main.spin",                              // 6
		"repro/internal/stats.Mean",              // 7
		"internal/runtime/atomic.(*Uint32).Load", // 8
	}
	var p pb
	for _, s := range strs {
		p = p.bytes(fProfileString, []byte(s))
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		p = p.bytes(fProfileFunction, pb{}.varint(fFunctionID, id).varint(fFunctionName, id))
	}
	loc := func(id uint64, fns ...uint64) {
		l := pb{}.varint(fLocationID, id)
		for _, f := range fns {
			l = l.bytes(fLocationLine, pb{}.varint(fLineFunction, f).varint(2, 10))
		}
		p = p.bytes(fProfileLocation, l)
	}
	loc(1, 1)    // memmove
	loc(2, 2, 3) // gatherTree inlined into mpib.Measure
	loc(3, 4)    // net/http
	loc(4, 5)    // gc worker
	loc(5, 6)    // bench
	loc(6, 7)    // other repo package
	loc(7, 8)    // runtime-internal atomic
	sample := func(weight uint64, packedLocs bool, locs ...uint64) {
		s := pb{}
		if packedLocs {
			s = s.packed(fSampleLocation, locs...)
		} else {
			for _, l := range locs {
				s = s.varint(fSampleLocation, l)
			}
		}
		s = s.packed(fSampleValue, 1, weight)
		p = p.bytes(fProfileSample, s)
	}
	sample(30, true, 1, 2) // memmove under mpi: mpi
	sample(10, false, 3)   // net/http alone: std
	sample(10, true, 7, 4) // gc worker: runtime and gc
	sample(40, false, 5)   // bench
	sample(5, true, 1, 6)  // memmove under stats: other
	sample(5, false, 1, 7) // runtime only: runtime
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeHandEncodedProfile(t *testing.T) {
	p, err := parseProfile(handProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	shares, gc := attribute(p)
	want := map[string]float64{"mpi": 0.3, "std": 0.1, "runtime": 0.15, "bench": 0.4, "other": 0.05}
	for _, l := range shareLayers {
		if got := shares[l]; math.Abs(got-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got, want[l])
		}
	}
	if math.Abs(gc-0.1) > 1e-12 {
		t.Errorf("gc share = %v, want 0.1", gc)
	}
}

func TestRepoLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mpi.(*Rank).gatherTree":              "mpi",
		"repro/internal/vtime.(*Engine).Run.func1":           "vtime",
		"repro/internal/linsolve.Solve":                      "other",
		"repro.(*System).Run":                                "other",
		"main.main":                                          "bench",
		"repro/bench.spin":                                   "bench",
		"slices.SortFunc[go.shape.[]repro/internal/mpi.Msg]": "",
		"net/http.(*conn).serve":                             "",
		"runtime.mallocgc":                                   "",
	} {
		if got := repoLayer(fn); got != want {
			t.Errorf("repoLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package until d has passed.
//
//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestAttributeLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("the profiler took no samples")
	}
	shares, _ := attribute(p)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01: %v", sum, shares)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %v of a busy loop in the bench package, want > 0.5: %v", shares["bench"], shares)
	}
}
