package estimate

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/stats"
)

// escalationThreshold is the excursion (seconds above the clean
// baseline) that classifies a sample as an escalation. TCP RTO stalls
// are two orders of magnitude above regular gather times on the target
// clusters, so the classification is not delicate.
const escalationThreshold = 0.05

// GatherScan is the raw material of the preliminary irregularity test:
// per message size, the repeated observations of linear gather.
type GatherScan struct {
	Sizes   []int       // message sizes scanned, increasing
	Samples [][]float64 // Samples[i] are the observations at Sizes[i], seconds
}

// ScanGather measures linear gather at each size with a fixed number of
// repetitions (adaptive stopping is useless in the irregular region —
// the noise is the signal). Root-side timing, per §IV. The gather is
// invariant (mpib.Invariant), so a size whose repetitions cannot vary
// is simulated only until mpib.Measure certifies one.
func ScanGather(cfg mpi.Config, root int, sizes []int, reps int, opt Options) (GatherScan, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return GatherScan{}, Report{}, err
	}
	if reps <= 0 {
		reps = 20
	}
	scan := GatherScan{Sizes: sizes, Samples: make([][]float64, len(sizes))}
	rep := Report{}
	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		for si, m := range sizes {
			meas := scanSize(r, root, m, reps)
			if r.Rank() == 0 {
				scan.Samples[si] = meas.Samples
				rep.Experiments++
				rep.Repetitions += meas.N
			}
		}
	})
	if err != nil {
		return GatherScan{}, rep, err
	}
	rep.Cost = res.Duration
	return scan, rep, nil
}

// scanSize is the scan's measurement at one size: reps repetitions of
// a linear gather of m-byte blocks at root.
func scanSize(r *mpi.Rank, root, m, reps int) mpib.Measurement {
	block := mpi.ZeroPayload(m)
	return mpib.Measure(r, root, mpib.RootTiming, mpib.Invariant(mpib.Options{MinReps: reps, MaxReps: reps}), func() {
		r.Gather(mpi.Linear, root, block)
	})
}

// AnalyzeGatherScan extracts the LMO empirical gather parameters from a
// scan: the thresholds M1 (largest size before escalations appear) and
// M2 (smallest size after they cease), the escalation magnitudes'
// modes, and the escalation probability near each edge of the region.
// It returns a zero-value GatherEmpirical if no irregular region is
// present (e.g. an ideal network).
func AnalyzeGatherScan(scan GatherScan) models.GatherEmpirical {
	n := len(scan.Sizes)
	if n == 0 {
		return models.GatherEmpirical{}
	}
	frac := make([]float64, n)
	var magnitudes []float64
	// Clean baseline per size: normally the minimum sample; but deep in
	// the irregular region every repetition may escalate, so the floor
	// detaches from the clean line. When the minimum jumps by more than
	// the escalation threshold above the line extrapolated from earlier
	// clean sizes, all samples are classified escalated against the
	// extrapolation instead.
	var cleanXs, cleanYs []float64
	for i, samples := range scan.Samples {
		if len(samples) == 0 {
			continue
		}
		base := stats.Min(samples)
		if len(cleanXs) >= 2 {
			lo := 0
			if len(cleanXs) > 5 {
				lo = len(cleanXs) - 5
			}
			if fit, err := stats.FitLine(cleanXs[lo:], cleanYs[lo:]); err == nil {
				if pred := fit.Eval(float64(scan.Sizes[i])); base-pred > escalationThreshold {
					base = pred // the whole size escalated
				}
			}
		}
		if base == stats.Min(samples) {
			cleanXs = append(cleanXs, float64(scan.Sizes[i]))
			cleanYs = append(cleanYs, base)
		}
		esc := 0
		for _, s := range samples {
			if s-base > escalationThreshold {
				esc++
				magnitudes = append(magnitudes, s-base)
			}
		}
		frac[i] = float64(esc) / float64(len(samples))
	}

	first, last := -1, -1
	for i := range frac {
		if frac[i] > 0 {
			if first == -1 {
				first = i
			}
			last = i
		}
	}
	if first == -1 {
		return models.GatherEmpirical{} // no escalations anywhere
	}

	g := models.GatherEmpirical{}
	if first > 0 {
		g.M1 = scan.Sizes[first-1]
	} else {
		g.M1 = scan.Sizes[0] / 2 // escalations from the very first size
	}
	if last < n-1 {
		g.M2 = scan.Sizes[last+1]
	} else {
		g.M2 = scan.Sizes[n-1] * 2 // escalations up to the last size
	}
	g.ProbLow = frac[first]
	g.ProbHigh = frac[last]
	g.EscModes = stats.Modes(magnitudes, 0.03)
	return g
}

// DetectGatherIrregularity runs the preliminary scan and the analysis
// in one step: the paper's "preliminary test of the collective
// operations for different message sizes to identify the regions of
// irregularities".
func DetectGatherIrregularity(cfg mpi.Config, root int, sizes []int, reps int, opt Options) (models.GatherEmpirical, Report, error) {
	if len(sizes) < 2 {
		return models.GatherEmpirical{}, Report{}, fmt.Errorf("estimate: irregularity scan needs at least 2 sizes")
	}
	scan, rep, err := ScanGather(cfg, root, sizes, reps, opt)
	if err != nil {
		return models.GatherEmpirical{}, rep, err
	}
	return AnalyzeGatherScan(scan), rep, nil
}

// DefaultScanSizes returns a size grid bracketing the irregularity
// regions of both MPI profiles: fine-grained (1 KB) below 10 KB where
// M1 falls, then 4 KB steps up to 192 KB to locate M2.
func DefaultScanSizes() []int {
	var out []int
	for m := 1 << 10; m < 10<<10; m += 1 << 10 {
		out = append(out, m)
	}
	for m := 12 << 10; m <= 192<<10; m += 4 << 10 {
		out = append(out, m)
	}
	return out
}
