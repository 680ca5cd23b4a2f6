package stats

import "sort"

// Mode is a cluster of nearby sample values: its representative value
// (cluster mean) and how many samples fell in it. The LMO empirical
// gather parameters report "the most frequent values of escalations and
// their probability" — exactly this.
type Mode struct {
	Value float64
	Count int
}

// Modes clusters xs greedily: sorted samples are grouped while
// consecutive values are within tol of the running cluster mean, and
// the resulting clusters are returned by decreasing count (ties by
// increasing value). tol <= 0 collapses only exact duplicates.
func Modes(xs []float64, tol float64) []Mode {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out []Mode
	start := 0
	sum := s[0]
	for i := 1; i <= len(s); i++ {
		if i < len(s) {
			mean := sum / float64(i-start)
			if s[i]-mean <= tol || s[i] == mean {
				sum += s[i]
				continue
			}
		}
		out = append(out, Mode{Value: sum / float64(i-start), Count: i - start})
		if i < len(s) {
			start = i
			sum = s[i]
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}
