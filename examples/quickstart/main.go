// Quickstart: build a simulated switched cluster, estimate the LMO
// communication model from timing experiments, and check its
// predictions of a scatter against the observation — the minimal
// end-to-end use of the commperf library.
package main

import (
	"fmt"
	"log"
	"time"

	commperf "repro"
)

func main() {
	// The paper's 16-node heterogeneous cluster under LAM 7.1.3.
	sys := commperf.NewSystem(commperf.Table1(), commperf.LAM(), 1)
	n := sys.Cluster().N()

	fmt.Printf("cluster: %d nodes behind one switch\n", n)

	// 1. Estimate the extended LMO model: round-trips + one-to-two
	// triplet experiments, scheduled in parallel on the switch.
	est, err := sys.Estimate(commperf.ModelLMO)
	if err != nil {
		log.Fatal(err)
	}
	lmo, rep := est.LMO, est.Report
	fmt.Printf("estimated LMO in %v of cluster time (%d experiments, %d repetitions)\n",
		rep.Cost.Round(time.Millisecond), rep.Experiments, rep.Repetitions)
	fmt.Printf("  fastest processor: C=%.1fµs  slowest: C=%.1fµs\n",
		minOf(lmo.C)*1e6, maxOf(lmo.C)*1e6)
	if lmo.Gather.Valid() {
		fmt.Printf("  gather irregularity region: %d–%d KB, escalations up to %.0f ms\n",
			lmo.Gather.M1>>10, lmo.Gather.M2>>10, lmo.Gather.MaxEscalation()*1000)
	}

	// 2. Predict a 64 KB linear scatter.
	const m = 64 << 10
	pred, err := lmo.Predict(commperf.PredictQuery{Coll: commperf.CollScatter, Alg: commperf.Linear, N: n, M: m})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted linear scatter of %d KB blocks: %.3f ms\n", m>>10, pred*1e3)

	// 3. Observe it on the (simulated) machine.
	var observed float64
	_, err = sys.Run(func(r *commperf.Rank) {
		meas := commperf.MeasureMakespan(r, func() {
			blocks := make([][]byte, n)
			for i := range blocks {
				blocks[i] = make([]byte, m)
			}
			r.Scatter(commperf.Linear, 0, blocks)
		}, commperf.WithReps(10, 10))
		observed = meas.Mean
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("observed:                                 %.3f ms (prediction off by %+.1f%%)\n",
		observed*1e3, 100*(pred-observed)/observed)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
