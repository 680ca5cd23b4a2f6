package models

import (
	"fmt"

	"repro/internal/stats"
)

// LogP is the Culler et al. model: latency L, overhead o, gap g (per
// message of at most W bytes), P processors. Large messages are
// decomposed into ⌈m/W⌉ packets separated by the gap.
type LogP struct {
	L float64 // network latency, seconds (constant network contribution)
	O float64 // per-message processor overhead, seconds
	G float64 // gap between consecutive packets, seconds
	W int     // packet size the model's small messages assume, bytes
	P int     // number of processors
}

// Name implements CollectivePredictor.
func (l *LogP) Name() string { return "LogP" }

// packets returns the number of W-byte packets an m-byte message needs.
func (l *LogP) packets(m int) int {
	if m <= 0 {
		return 1
	}
	w := l.W
	if w <= 0 {
		w = 1
	}
	return (m + w - 1) / w
}

// P2P implements CollectivePredictor: L + 2o for one packet, plus one gap per
// additional packet of the decomposed large message.
func (l *LogP) P2P(_, _, m int) float64 {
	return l.L + 2*l.O + float64(l.packets(m)-1)*l.G
}

// flat predicts the flat-tree scatter and gather: the root emits (n-1)
// messages separated by the gap; the last one completes after L + 2o
// more.
func (l *LogP) flat(_, n, m int) float64 {
	per := float64(l.packets(m)) * l.G
	return l.L + 2*l.O + float64(n-1)*per
}

// String renders the parameters.
func (l *LogP) String() string {
	return fmt.Sprintf("LogP{L=%.3gs, o=%.3gs, g=%.3gs, W=%dB, P=%d}", l.L, l.O, l.G, l.W, l.P)
}

// LogGP extends LogP with a gap per byte, G, for long messages:
// point-to-point time L + 2o + (M-1)·G, with the original per-message
// gap g spacing consecutive transmissions.
type LogGP struct {
	L    float64 // latency, seconds
	O    float64 // per-message overhead, seconds
	SmG  float64 // g: gap per message, seconds
	BigG float64 // G: gap per byte, seconds/byte
	P    int     // number of processors
}

// Name implements CollectivePredictor.
func (l *LogGP) Name() string { return "LogGP" }

// P2P implements CollectivePredictor: L + 2o + (M-1)G.
func (l *LogGP) P2P(_, _, m int) float64 {
	if m < 1 {
		m = 1
	}
	return l.L + 2*l.O + float64(m-1)*l.BigG
}

// flat predicts the flat-tree scatter and gather with the paper's
// Table II formula: L + 2o + (n-1)(M-1)G + (n-2)g.
func (l *LogGP) flat(_, n, m int) float64 {
	if m < 1 {
		m = 1
	}
	return l.L + 2*l.O + float64(n-1)*float64(m-1)*l.BigG + float64(n-2)*l.SmG
}

// String renders the parameters.
func (l *LogGP) String() string {
	return fmt.Sprintf("LogGP{L=%.3gs, o=%.3gs, g=%.3gs, G=%.3gs/B, P=%d}", l.L, l.O, l.SmG, l.BigG, l.P)
}

// PLogP is the parameterized LogP model of Kielmann et al.: all
// parameters except the latency are piecewise-linear functions of the
// message size. Point-to-point time is L + g(M).
type PLogP struct {
	L  float64         // end-to-end latency, seconds
	OS *stats.PWLinear // send overhead o_s(M), seconds
	OR *stats.PWLinear // receive overhead o_r(M), seconds
	G  *stats.PWLinear // gap g(M), seconds; g(M) ≥ o_s(M), o_r(M)
	P  int             // number of processors
}

// Name implements CollectivePredictor.
func (p *PLogP) Name() string { return "PLogP" }

// Gap evaluates g(M).
func (p *PLogP) Gap(m int) float64 { return p.G.Eval(float64(m)) }

// SendOverhead evaluates o_s(M).
func (p *PLogP) SendOverhead(m int) float64 { return p.OS.Eval(float64(m)) }

// RecvOverhead evaluates o_r(M).
func (p *PLogP) RecvOverhead(m int) float64 { return p.OR.Eval(float64(m)) }

// P2P implements CollectivePredictor: L + g(M).
func (p *PLogP) P2P(_, _, m int) float64 { return p.L + p.Gap(m) }

// flat predicts the flat-tree scatter and gather with the paper's
// Table II formula: L + (n-1)·g(M).
func (p *PLogP) flat(_, n, m int) float64 { return p.L + float64(n-1)*p.Gap(m) }

// String renders the parameters compactly.
func (p *PLogP) String() string {
	return fmt.Sprintf("PLogP{L=%.3gs, %d g-knots, P=%d}", p.L, p.G.NumKnots(), p.P)
}
