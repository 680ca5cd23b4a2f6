package simnet

import "repro/internal/obs"

// SetObserver installs a span trace observing message lifecycle
// phases, RTO stalls, escalations and fault incidents (nil disables
// it). It is the network's one observation hook. Spans are emitted at
// phase completion with the timestamps the simulation computed anyway,
// so observation cannot perturb the run: a send span [SentAt,
// InjectedAt] on the source's track, a wire span [InjectedAt,
// ArrivedAt] and a recv span [ArrivedAt, recv-done] on the
// destination's, each parented to whatever collective span the mpi
// layer has open on that track. An escalated transfer's escalation
// point directly follows its send span.
func (n *Network) SetObserver(t *obs.Trace) { n.obs = t }
