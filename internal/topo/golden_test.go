package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates testdata/routes.golden from the current tables:
//
//	go test ./internal/topo -run TestRouteGolden -update
var update = flag.Bool("update", false, "rewrite testdata/routes.golden")

// TestRouteGolden pins every node pair's route on five topologies: the
// hop ids in order, the summed latency, the summed inverse rate (bit
// for bit) and the highest class. Each topology renders as one line:
// its shape, the route count per (class, hop count), and a SHA-256 over
// every pair's route in row-major order, so a 1 024-host fat-tree's
// million routes fit in a line.
func TestRouteGolden(t *testing.T) {
	topos := []*Topology{
		FatTree(4, DefaultUplink()),
		FatTree(8, DefaultUplink()),
		FatTree(16, DefaultUplink()),
		TwoTier(4, 8, DefaultUplink()),
		MultiCluster(3, 5, DefaultWAN()),
	}
	var b strings.Builder
	for _, tp := range topos {
		h := sha256.New()
		var buf []byte
		hist := map[[2]int]int{}
		n := tp.Nodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rt := tp.Route(i, j)
				buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(rt.Hops)))
				for _, de := range rt.Hops {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(de))
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(rt.L))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rt.InvBeta))
				buf = append(buf, byte(rt.MaxClass))
				h.Write(buf)
				hist[[2]int{int(rt.MaxClass), len(rt.Hops)}]++
			}
		}
		fmt.Fprintf(&b, "%s nodes=%d switches=%d edges=%d", tp.Name, n, tp.Switches, tp.NumEdges())
		for c := Intra; c <= WAN; c++ {
			for hops := 0; hops <= tp.Switches; hops++ {
				if k := hist[[2]int{int(c), hops}]; k > 0 {
					fmt.Fprintf(&b, " %s/%d:%d", c, hops, k)
				}
			}
		}
		fmt.Fprintf(&b, " sha256=%x\n", h.Sum(nil))
	}
	path := filepath.Join("testdata", "routes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("%s:\nwant\n%s\ngot\n%s", path, want, got)
	}
}
