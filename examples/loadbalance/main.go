// Heterogeneous load balancing: the use case that motivates the whole
// modelling effort (paper §I — "optimization of parallel applications
// on computational clusters"). A data-parallel job scatters a large
// buffer, each processor handles its share, and the results are
// gathered back. On a heterogeneous cluster, equal shares leave fast
// processors idle; shares proportional to the LMO-estimated per-byte
// speeds finish together.
package main

import (
	"fmt"
	"log"
	"time"

	commperf "repro"
)

const totalBytes = 2 << 20 // 2 MiB of work to distribute

func main() {
	sys := commperf.NewSystem(commperf.Table1(), commperf.Ideal(), 1)
	n := sys.Cluster().N()

	fmt.Println("estimating the LMO model (processor speeds come from it, not from ground truth)...")
	est, err := sys.Estimate(commperf.ModelLMO)
	if err != nil {
		log.Fatal(err)
	}
	lmo := est.LMO

	equal := make([]int, n)
	for i := range equal {
		equal[i] = totalBytes / n
	}
	proportional := commperf.ProportionalCounts(lmo, totalBytes, 1)

	fmt.Printf("\nshare of the slowest processor: equal %d KB, proportional %d KB\n",
		equal[minIdx(lmo.T)]>>10, proportional[maxIdx(lmo.T)]>>10)

	tEqual := runJob(sys, lmo, equal)
	tProp := runJob(sys, lmo, proportional)
	fmt.Printf("\nmakespan with equal shares:        %v\n", tEqual.Round(time.Microsecond))
	fmt.Printf("makespan with proportional shares: %v (%.0f%% faster)\n",
		tProp.Round(time.Microsecond), 100*(1-float64(tProp)/float64(tEqual)))
}

// runJob scatters counts[i] bytes to rank i, "processes" them at each
// processor's per-byte speed, gathers the results back, and returns
// the makespan.
func runJob(sys *commperf.System, lmo *commperf.LMO, counts []int) time.Duration {
	n := sys.Cluster().N()
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, counts[i])
	}
	res, err := sys.Run(func(r *commperf.Rank) {
		mine := r.Scatterv(commperf.Linear, 0, blocks, counts)
		// Model the computation: proportional to bytes × the node's
		// per-byte cost (a stand-in for real work with the same skew the
		// communication model measured).
		work := time.Duration(float64(len(mine)) * lmo.T[r.Rank()] * 200 * float64(time.Second))
		r.Sleep(work)
		r.Gatherv(commperf.Linear, 0, mine, counts)
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Duration
}

func minIdx(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func maxIdx(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
