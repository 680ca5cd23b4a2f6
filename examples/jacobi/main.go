// An application kernel on top of the library: a Jacobi-style
// iteration where each step scatters the current state, computes
// locally, and gathers the updates — the bulk-synchronous pattern whose
// communication share the paper's models exist to predict and shrink.
//
// Three variants run on the simulated 16-node cluster under the LAM
// TCP profile:
//
//  1. naive      — fixed linear collectives, equal shares;
//  2. tuned      — model-driven algorithm choice + gather splitting;
//  3. balanced   — tuned collectives plus LMO-proportional shares.
//
// The LMO model also predicts the per-iteration communication time, so
// the example closes with predicted-vs-simulated agreement.
package main

import (
	"fmt"
	"log"
	"time"

	commperf "repro"
)

const (
	iterations = 8
	totalState = 512 << 10 // bytes of state scattered per iteration
	workFactor = 120       // computation cost multiplier per byte
)

func main() {
	sys := commperf.NewSystem(commperf.Table1(), commperf.LAM(), 3)
	n := sys.Cluster().N()

	fmt.Println("estimating the LMO model...")
	est, err := sys.Estimate(commperf.ModelLMO)
	if err != nil {
		log.Fatal(err)
	}
	lmo := est.LMO
	tuner := commperf.NewTuner(lmo, n)

	equal := make([]int, n)
	for i := range equal {
		equal[i] = totalState / n
	}
	balanced := commperf.ProportionalCounts(lmo, totalState, 1)

	naive := runIterations(sys, lmo, nil, equal)
	tuned := runIterations(sys, lmo, tuner, equal)
	bal := runIterations(sys, lmo, tuner, balanced)

	fmt.Printf("\n%-34s %v\n", "naive (linear, equal shares):", naive.Round(time.Millisecond))
	fmt.Printf("%-34s %v (%.1f× vs naive)\n", "tuned collectives:", tuned.Round(time.Millisecond),
		float64(naive)/float64(tuned))
	fmt.Printf("%-34s %v (%.1f× vs naive)\n", "tuned + balanced shares:", bal.Round(time.Millisecond),
		float64(naive)/float64(bal))

	// Predicted communication per iteration (scatter + gather of the
	// equal-share block under the chosen algorithms).
	block := totalState / n
	scatterAlg, scatterT := commperf.SelectAlgAmong(lmo, commperf.CollScatter, 0, n, block, nil)
	fmt.Printf("\nLMO predicts %s scatter at %d KB blocks: %.2f ms/iteration\n",
		scatterAlg, block>>10, scatterT*1e3)
}

// runIterations executes the scatter→compute→gather loop and returns
// the makespan. With tuner == nil the fixed linear algorithms run;
// counts control the share each rank computes on.
func runIterations(sys *commperf.System, lmo *commperf.LMO, tuner *commperf.Tuner, counts []int) time.Duration {
	n := sys.Cluster().N()
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, counts[i])
	}
	equalShares := true
	for i := 1; i < n; i++ {
		if counts[i] != counts[0] {
			equalShares = false
		}
	}
	res, err := sys.Run(func(r *commperf.Rank) {
		for it := 0; it < iterations; it++ {
			var mine []byte
			switch {
			case equalShares && tuner != nil:
				mine = tuner.Scatter(r, 0, blocks)
			case equalShares:
				mine = r.Scatter(commperf.Linear, 0, blocks)
			default:
				mine = r.Scatterv(commperf.Linear, 0, blocks, counts)
			}
			// Local computation proportional to the share and the node's
			// per-byte speed (the skew the model measured).
			work := time.Duration(float64(len(mine)) * lmo.T[r.Rank()] * workFactor * float64(time.Second))
			r.Sleep(work)
			switch {
			case equalShares && tuner != nil:
				tuner.Gather(r, 0, mine)
			case equalShares:
				r.Gather(commperf.Linear, 0, mine)
			case tuner != nil:
				// Variable shares with the splitting optimization: the
				// larger balanced blocks would otherwise escalate.
				commperf.OptimizedGatherv(r, 0, mine, counts, lmo.Gather)
			default:
				r.Gatherv(commperf.Linear, 0, mine, counts)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Duration
}
