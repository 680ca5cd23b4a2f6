// Package stats provides the statistical machinery used across the
// reproduction: descriptive statistics, Student-t confidence intervals
// (the MPIBlib stopping rule), least-squares linear fits (Hockney
// estimation), piecewise-linear functions of the message size (PLogP
// parameters) and mode extraction (gather escalation statistics).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Min returns the smallest element (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MAD returns the median absolute deviation from the median, the
// robust scale estimate behind outlier rejection (0 for empty input).
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// madScale converts a MAD into a standard-deviation-comparable scale
// for normally distributed data.
const madScale = 1.4826

// RejectOutliers drops the samples farther than k scaled MADs from the
// median and returns the survivors (in original order) plus the number
// rejected. When the MAD is zero — at least half the samples identical,
// e.g. a zero-variance series — a tiny relative tolerance substitutes,
// so an injected spike is still rejected while the identical samples
// survive. k <= 0 disables rejection.
func RejectOutliers(xs []float64, k float64) ([]float64, int) {
	if k <= 0 || len(xs) < 3 {
		return xs, 0
	}
	m := Median(xs)
	tol := k * madScale * MAD(xs)
	if tol == 0 {
		tol = 1e-9 * math.Max(math.Abs(m), 1)
	}
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m) <= tol {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 { // pathological: keep the median itself
		return []float64{m}, len(xs) - 1
	}
	return kept, len(xs) - len(kept)
}

// RobustSummarize summarizes xs at the given confidence level after
// MAD-based outlier rejection with threshold k, returning the summary
// of the surviving samples and the number rejected. k <= 0 makes it
// identical to Summarize.
func RobustSummarize(xs []float64, confidence, k float64) (Summary, int) {
	kept, rejected := RejectOutliers(xs, k)
	return Summarize(kept, confidence), rejected
}

// tTable95 and tTable99 hold two-sided Student-t critical values for
// the listed degrees of freedom. Values beyond the table are
// interpolated; beyond the last entry the normal limit applies.
var tDF = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 40, 60, 120}

var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	2.021, 2.000, 1.980,
}

var tTable99 = []float64{
	63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
	3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
	2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
	2.704, 2.660, 2.617,
}

// TCritical returns the two-sided Student-t critical value for the
// given confidence level and degrees of freedom. Confidence levels
// other than 0.95 and 0.99 fall back to the nearest of the two; df < 1
// is treated as 1. Between tabulated df the value is linearly
// interpolated; above the table the normal quantile is used.
func TCritical(confidence float64, df int) float64 {
	table := tTable95
	norm := 1.960
	if math.Abs(confidence-0.99) < math.Abs(confidence-0.95) {
		table = tTable99
		norm = 2.576
	}
	if df < 1 {
		df = 1
	}
	if df > tDF[len(tDF)-1] {
		return norm
	}
	for i, d := range tDF {
		if df == d {
			return table[i]
		}
		if df < d {
			lo, hi := tDF[i-1], d
			frac := float64(df-lo) / float64(hi-lo)
			return table[i-1] + frac*(table[i]-table[i-1])
		}
	}
	return norm
}

// Summary describes a measured sample with its confidence interval.
type Summary struct {
	N          int     `json:"n"`          // number of observations
	Mean       float64 `json:"mean"`       // sample mean
	StdDev     float64 `json:"stddev"`     // sample standard deviation
	CIHalf     float64 `json:"ci_half"`    // half-width of the confidence interval
	Confidence float64 `json:"confidence"` // confidence level the half-width was computed at
}

// RelErr returns the relative error CIHalf/Mean (infinite for zero mean
// with nonzero half-width, zero for a zero-mean zero-width sample).
func (s Summary) RelErr() float64 {
	if s.Mean == 0 {
		if s.CIHalf == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(s.CIHalf / s.Mean)
}

// Summarize computes a Summary of xs at the given confidence level.
func Summarize(xs []float64, confidence float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs), Confidence: confidence}
	if s.N >= 2 {
		t := TCritical(confidence, s.N-1)
		s.CIHalf = t * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// LinearFit is a least-squares straight line y = Intercept + Slope*x.
type LinearFit struct {
	Intercept float64
	Slope     float64
	R2        float64 // coefficient of determination
}

// ErrDegenerate reports that a fit or solve had insufficient or
// degenerate input.
var ErrDegenerate = errors.New("stats: degenerate input")

// FitLine fits a least-squares line through the points (xs[i], ys[i]).
// It needs at least two points with distinct x values.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrDegenerate
	}
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	slope := sxy / sxx
	fit := LinearFit{Intercept: my - slope*mx, Slope: slope}
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - fit.Eval(xs[i])
			ssRes += r * r
		}
		fit.R2 = 1 - ssRes/syy
	} else {
		fit.R2 = 1
	}
	_ = n
	return fit, nil
}

// Eval evaluates the fitted line at x.
func (f LinearFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }
