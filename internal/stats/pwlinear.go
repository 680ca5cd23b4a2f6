package stats

import (
	"fmt"
	"sort"
	"strings"
)

// PWLinear is a piecewise-linear function of the message size, the
// representation PLogP uses for its size-dependent parameters
// (overheads and gap). Between knots the function interpolates
// linearly; left of the first knot it is constant, right of the last
// knot it extrapolates with the final segment's slope (so the modelled
// asymptotic bandwidth carries to arbitrarily large messages).
type PWLinear struct {
	xs []float64
	ys []float64
}

// NewPWLinear builds a piecewise-linear function from knots. Knots may
// be given in any order; duplicate x values keep the last y.
func NewPWLinear(xs, ys []float64) (*PWLinear, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, ErrDegenerate
	}
	type knot struct{ x, y float64 }
	ks := make([]knot, len(xs))
	for i := range xs {
		ks[i] = knot{xs[i], ys[i]}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].x < ks[j].x })
	p := &PWLinear{}
	for _, k := range ks {
		if n := len(p.xs); n > 0 && p.xs[n-1] == k.x {
			p.ys[n-1] = k.y
			continue
		}
		p.xs = append(p.xs, k.x)
		p.ys = append(p.ys, k.y)
	}
	return p, nil
}

// NumKnots returns the number of knots.
func (p *PWLinear) NumKnots() int { return len(p.xs) }

// Knot returns the i-th knot in increasing-x order.
func (p *PWLinear) Knot(i int) (x, y float64) { return p.xs[i], p.ys[i] }

// Eval evaluates the function at x.
func (p *PWLinear) Eval(x float64) float64 {
	n := len(p.xs)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return p.ys[0]
	case x <= p.xs[0]:
		return p.ys[0]
	case x >= p.xs[n-1]:
		// Extrapolate with the last segment's slope.
		slope := (p.ys[n-1] - p.ys[n-2]) / (p.xs[n-1] - p.xs[n-2])
		return p.ys[n-1] + slope*(x-p.xs[n-1])
	}
	i := sort.SearchFloat64s(p.xs, x)
	if p.xs[i] == x {
		return p.ys[i]
	}
	x0, x1 := p.xs[i-1], p.xs[i]
	y0, y1 := p.ys[i-1], p.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// String renders the knots, mainly for debugging and reports.
func (p *PWLinear) String() string {
	var b strings.Builder
	b.WriteString("pwl{")
	for i := range p.xs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%g, %g)", p.xs[i], p.ys[i])
	}
	b.WriteString("}")
	return b.String()
}
