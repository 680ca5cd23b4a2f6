package cluster

import (
	"fmt"
	"math"
	"time"
)

// TCPProfile captures the TCP/IP-layer irregularities the paper
// observes on switched clusters, which differ between MPI
// implementations (§III: LAM 7.1.3 vs MPICH 1.2.7 have different
// M1/M2). The simulator injects these mechanically; the estimation
// code must re-discover them from measurements.
//
// Two phenomena are modelled:
//
//   - A leap in point-to-point (and hence scatter) transfer time once
//     the message crosses LeapAt bytes, repeating with geometrically
//     decaying height at each further multiple so the execution time
//     "converges to the line with the same slope" (§V).
//
//   - Escalations of many-to-one (gather-direction) communications for
//     medium messages M1 < M < M2: when several flows head to the same
//     destination concurrently, each flow independently suffers a
//     long, RTO-like stall with a probability that grows across the
//     region. For M > M2 the destination's ingress port serializes the
//     transfers entirely (the paper's "sum" branch of eq 5).
type TCPProfile struct {
	Name string // profile name, e.g. "LAM 7.1.3"

	// Point-to-point leap.
	LeapAt    int           // bytes; 0 disables the leap
	Leap      time.Duration // height of the first leap
	LeapDecay float64       // geometric decay of repeated leaps in (0,1)

	// Many-to-one irregularity region.
	M1 int // below M1: parallel, regular behaviour
	M2 int // above M2: destination ingress serializes

	EscProbMin float64         // escalation probability at M1
	EscProbMax float64         // escalation probability at M2
	EscDelays  []time.Duration // escalation stall values ("modes")
	EscWeights []float64       // relative weights of EscDelays

	// Rendezvous, when positive, makes sends of at least this many
	// bytes block until delivery (the rendezvous protocol) instead of
	// returning when the sender's CPU frees (eager). Disabled (0) in
	// the built-in profiles; used by the mechanism ablations.
	Rendezvous int
}

// LAM returns the profile of LAM 7.1.3 on the paper's cluster:
// M1 = 4 KB, M2 = 65 KB, scatter leap at 64 KB, escalations up to
// 0.25 s (§III, §V).
func LAM() *TCPProfile {
	return &TCPProfile{
		Name:       "LAM 7.1.3",
		LeapAt:     64 << 10,
		Leap:       300 * time.Microsecond,
		LeapDecay:  0.5,
		M1:         4 << 10,
		M2:         65 << 10,
		EscProbMin: 0.008,
		EscProbMax: 0.05,
		EscDelays:  []time.Duration{200 * time.Millisecond, 250 * time.Millisecond},
		EscWeights: []float64{0.7, 0.3},
	}
}

// MPICH returns the profile of MPICH 1.2.7 on the paper's cluster:
// M1 = 3 KB, M2 = 125 KB (§III). MPICH showed no pronounced scatter
// leap in the paper's plots, so the leap is disabled.
func MPICH() *TCPProfile {
	return &TCPProfile{
		Name:       "MPICH 1.2.7",
		M1:         3 << 10,
		M2:         125 << 10,
		EscProbMin: 0.008,
		EscProbMax: 0.04,
		EscDelays:  []time.Duration{180 * time.Millisecond, 230 * time.Millisecond},
		EscWeights: []float64{0.75, 0.25},
	}
}

// Ideal returns a profile with no irregularities, for ablation runs.
func Ideal() *TCPProfile { return &TCPProfile{Name: "ideal"} }

// ParseProfile returns the built-in profile of the given name: "lam",
// "mpich" or "ideal".
func ParseProfile(name string) (*TCPProfile, error) {
	switch name {
	case "lam":
		return LAM(), nil
	case "mpich":
		return MPICH(), nil
	case "ideal":
		return Ideal(), nil
	default:
		return nil, fmt.Errorf("cluster: unknown profile %q (lam, mpich, ideal)", name)
	}
}

// LeapExtra returns the extra transfer delay caused by the
// point-to-point leap for a message of m bytes: the first crossing of
// LeapAt adds Leap, each further multiple adds a geometrically smaller
// increment, so the total converges and the asymptotic slope is
// unchanged.
func (p *TCPProfile) LeapExtra(m int) time.Duration {
	if p.LeapAt <= 0 || m < p.LeapAt {
		return 0
	}
	k := m / p.LeapAt // number of boundaries crossed (k >= 1)
	r := p.LeapDecay
	if r <= 0 || r >= 1 {
		return p.Leap
	}
	// Leap * (1 + r + ... + r^(k-1)) = Leap * (1 - r^k)/(1 - r)
	total := float64(p.Leap) * (1 - math.Pow(r, float64(k))) / (1 - r)
	return time.Duration(total)
}

// EscalationProb returns the probability that one medium-size flow into
// a contended destination escalates, for a message of m bytes. It is 0
// outside (M1, M2) and interpolates linearly from EscProbMin at M1 to
// EscProbMax at M2, matching the paper's observation that "the
// probability becomes less with the growth of message size" for the
// execution time to stay on the linear model.
func (p *TCPProfile) EscalationProb(m int) float64 {
	if p.M1 <= 0 || p.M2 <= p.M1 || m <= p.M1 || m >= p.M2 {
		return 0
	}
	f := float64(m-p.M1) / float64(p.M2-p.M1)
	return p.EscProbMin + f*(p.EscProbMax-p.EscProbMin)
}

// SerializesIngress reports whether a message of m bytes is large
// enough that concurrent transfers into one destination serialize on
// its ingress port.
func (p *TCPProfile) SerializesIngress(m int) bool {
	return p.M2 > 0 && m > p.M2
}

// BaseRTO returns the profile's dominant escalation stall — the
// implementation's effective TCP retransmission timeout. The fault
// injection layer uses it as the default retransmission stall for
// lossy links, so injected packet loss matches the magnitude of the
// RTO phenomenon the profile already models. Profiles without
// escalation modes fall back to 200 ms, the classic RTO floor.
func (p *TCPProfile) BaseRTO() time.Duration {
	best, bestW := time.Duration(0), -1.0
	for i, d := range p.EscDelays {
		w := 1.0
		if i < len(p.EscWeights) {
			w = p.EscWeights[i]
		}
		if w > bestW {
			best, bestW = d, w
		}
	}
	if best <= 0 {
		return 200 * time.Millisecond
	}
	return best
}

// PickEscalation selects an escalation stall using u ∈ [0,1) against
// the weighted delay modes. It returns 0 when no modes are configured.
func (p *TCPProfile) PickEscalation(u float64) time.Duration {
	if len(p.EscDelays) == 0 {
		return 0
	}
	if len(p.EscWeights) != len(p.EscDelays) {
		return p.EscDelays[0]
	}
	total := 0.0
	for _, w := range p.EscWeights {
		total += w
	}
	if total <= 0 {
		return p.EscDelays[0]
	}
	x := u * total
	for i, w := range p.EscWeights {
		if x < w {
			return p.EscDelays[i]
		}
		x -= w
	}
	return p.EscDelays[len(p.EscDelays)-1]
}

// RendezvousAt returns a copy of the profile in which sends of at
// least m bytes use the rendezvous protocol: the sender blocks until
// the message is delivered instead of returning once its CPU is free
// (eager semantics). Real MPI implementations switch protocols above
// an eager threshold; under rendezvous the root of a linear scatter
// serializes whole point-to-point times — the very assumption behind
// the Hockney model's serial reading (Fig 1). Zero disables
// rendezvous (the default everywhere else in this package).
func (p *TCPProfile) RendezvousAt(m int) *TCPProfile {
	q := *p
	q.Rendezvous = m
	return &q
}
