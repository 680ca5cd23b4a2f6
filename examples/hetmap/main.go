// Heterogeneous mapping: on a heterogeneous cluster the performance of
// a binomial-tree collective depends on which processor occupies which
// tree position (Hatta & Shibusawa's problem, §I). A homogeneous model
// predicts the same time for every mapping; the heterogeneous LMO
// model can rank mappings and drive the optimizer. This example maps
// the paper's cluster onto the binomial scatter tree and compares the
// naive (identity) mapping with the LMO-optimized one.
package main

import (
	"fmt"
	"log"

	commperf "repro"
)

func main() {
	sys := commperf.NewSystem(commperf.Table1(), commperf.Ideal(), 1)
	n := sys.Cluster().N()

	fmt.Println("estimating the LMO model...")
	est, err := sys.Estimate(commperf.ModelLMO)
	if err != nil {
		log.Fatal(err)
	}
	lmo := est.LMO

	const m = 32 << 10
	naive := lmo.ScatterBinomial(0, n, m)
	perm, optimized := commperf.MapBinomialTree(lmo, 0, n, m)

	fmt.Printf("\nbinomial scatter of %d KB blocks, predicted by LMO:\n", m>>10)
	fmt.Printf("  identity mapping:  %.3f ms\n", naive*1e3)
	fmt.Printf("  optimized mapping: %.3f ms (%.1f%% faster)\n",
		optimized*1e3, 100*(naive-optimized)/naive)

	fmt.Println("\ntree position → processor (changed assignments only):")
	for pos, proc := range perm {
		if pos != proc {
			fmt.Printf("  position %2d ← %s (%s)\n",
				pos, sys.Cluster().Nodes[proc].Name, sys.Cluster().Nodes[proc].Model)
		}
	}
	if allIdentity(perm) {
		fmt.Println("  (identity — the cluster arrangement is already optimal)")
	}

	// A homogeneous model cannot distinguish mappings at all.
	est, err = sys.Estimate(commperf.ModelHockney)
	if err != nil {
		log.Fatal(err)
	}
	hom := est.Hockney
	fmt.Printf("\nfor contrast, homogeneous Hockney predicts %.3f ms for every mapping\n",
		hom.ScatterBinomial(0, n, m)*1e3)
}

func allIdentity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}
