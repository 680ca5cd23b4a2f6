// Algorithm selection (the paper's Fig 6 scenario): an application
// scatters matrices of varying sizes and wants the faster collective
// algorithm at each size. The heterogeneous Hockney model mispredicts
// the switch point; the LMO model gets it right. This example
// estimates both, lets each choose, and scores the choices against the
// observed execution times.
package main

import (
	"fmt"
	"log"

	commperf "repro"
)

func main() {
	sys := commperf.NewSystem(commperf.Table1(), commperf.LAM(), 1)
	n := sys.Cluster().N()

	fmt.Println("estimating het-Hockney and LMO models...")
	hest, err := sys.Estimate(commperf.ModelHetHockney)
	if err != nil {
		log.Fatal(err)
	}
	hockney := hest.HetHockney
	est, err := sys.Estimate(commperf.ModelLMO)
	if err != nil {
		log.Fatal(err)
	}
	lmo := est.LMO

	sizes := []int{1 << 10, 8 << 10, 32 << 10, 100 << 10, 150 << 10, 200 << 10}
	fmt.Printf("\n%-8s %-14s %-14s %-16s %-16s %s\n",
		"size", "linear (obs)", "binomial (obs)", "Hockney picks", "LMO picks", "faster")
	hockneyScore, lmoScore := 0, 0
	linBin := []commperf.Alg{commperf.Linear, commperf.Binomial}
	for _, m := range sizes {
		lin := observeScatter(sys, commperf.Linear, m)
		bin := observeScatter(sys, commperf.Binomial, m)
		observed := commperf.Linear
		if bin < lin {
			observed = commperf.Binomial
		}
		hPick, _ := commperf.SelectAlgAmong(hockney, commperf.CollScatter, 0, n, m, linBin)
		lPick, _ := commperf.SelectAlgAmong(lmo, commperf.CollScatter, 0, n, m, linBin)
		if hPick == observed {
			hockneyScore++
		}
		if lPick == observed {
			lmoScore++
		}
		fmt.Printf("%-8s %-14s %-14s %-16s %-16s %s\n",
			fmt.Sprintf("%dK", m>>10),
			fmt.Sprintf("%.2fms", lin*1e3), fmt.Sprintf("%.2fms", bin*1e3),
			mark(hPick, observed), mark(lPick, observed), observed)
	}
	fmt.Printf("\ncorrect decisions: Hockney %d/%d, LMO %d/%d\n",
		hockneyScore, len(sizes), lmoScore, len(sizes))
	if cross := commperf.AlgCrossover(lmo, 0, n, sizes); cross > 0 {
		fmt.Printf("LMO predicts the algorithms cross over near %d KB\n", cross>>10)
	} else {
		fmt.Println("LMO predicts no algorithm crossover in this range")
	}
}

func observeScatter(sys *commperf.System, alg commperf.Alg, m int) float64 {
	n := sys.Cluster().N()
	var mean float64
	_, err := sys.Run(func(r *commperf.Rank) {
		meas := commperf.MeasureMakespan(r, func() {
			blocks := make([][]byte, n)
			for i := range blocks {
				blocks[i] = make([]byte, m)
			}
			r.Scatter(alg, 0, blocks)
		}, commperf.WithReps(8, 8))
		mean = meas.Mean
	})
	if err != nil {
		log.Fatal(err)
	}
	return mean
}

func mark(pick, observed commperf.Alg) string {
	if pick == observed {
		return pick.String() + " ✓"
	}
	return pick.String() + " ✗"
}
