package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/topo"
)

var estimateTable1 = workload{
	name: "estimate-table1",
	why: "full model zoo on the 16-node Table I switch under LAM: TCP irregularity, payloads to 200 KB; " +
		"loads vtime, simnet, mpi, mpib and estimate",
	clients: 1,
	ops:     6,
	setup: func(seed int64) (session, error) {
		return &table1Session{estSession: newEstSession(seed), cl: cluster.Table1(), prof: cluster.LAM()}, nil
	},
}

var fabricFattree = workload{
	name: "fabric-fattree1024",
	why: "grouped LMO estimation of a 1024-host fat-tree: many ranks, small messages, multi-hop routes, " +
		"no TCP irregularity",
	clients: 1,
	ops:     5,
	setup:   setupFabric,
}

// scanReps is the irregularity scan's repetitions per size.
const scanReps = 20

// estSession is what both estimation workloads accumulate over their
// measured operations; each has one client.
type estSession struct {
	seed                                                 int64
	walls                                                map[string][]float64 // per-layer metric → wall seconds of its public call
	ops, experiments, repetitions, retries, nonConverged int
	virtual                                              []float64
	digest                                               map[string]string
}

func newEstSession(seed int64) estSession {
	return estSession{seed: seed, walls: map[string][]float64{}, digest: map[string]string{}}
}

// call runs one public estimation call inside a span and returns its
// wall time in seconds.
func call(sp *spanRec, track int, name string, fn func() error) (float64, error) {
	t := sp.begin(track, name)
	err := fn()
	return t.end().Seconds(), err
}

// account adds measured operation i: its output digest, the wall time
// of each public call, and the estimation reports.
func (s *estSession) account(i int, digest string, walls map[string]float64, reps ...estimate.Report) {
	if i == warmup {
		return
	}
	var cost time.Duration
	s.ops++
	for _, r := range reps {
		cost += r.Cost
		s.experiments += r.Experiments
		s.repetitions += r.Repetitions
		s.retries += r.Retries
		s.nonConverged += r.NonConverged
	}
	for name, w := range walls {
		s.walls[name] = append(s.walls[name], w)
	}
	s.virtual = append(s.virtual, cost.Seconds())
	s.digest[fmt.Sprintf("seed=%d", s.seed+int64(i))] = digest
}

func (s *estSession) layers() (map[string]float64, error) {
	ops := float64(max(s.ops, 1))
	out := map[string]float64{
		"estimate.experiments_per_op":  float64(s.experiments) / ops,
		"estimate.retries_per_op":      float64(s.retries) / ops,
		"estimate.nonconverged_per_op": float64(s.nonConverged) / ops,
		"estimate.virtual_cost_s":      median(s.virtual),
		"mpib.reps_per_experiment":     float64(s.repetitions) / float64(max(s.experiments, 1)),
	}
	for name, w := range s.walls {
		out[name] = median(w)
	}
	return out, nil
}

func (s *estSession) exact() map[string]float64 {
	return map[string]float64{"estimate.virtual_cost_s": median(s.virtual)}
}

func (s *estSession) digests() map[string]string { return s.digest }
func (s *estSession) close()                     {}

// observed collects the simulator counters of observed estimations.
type observed struct{ traces []*obs.Trace }

func (o *observed) next() *obs.Trace {
	t := obs.NewTrace()
	o.traces = append(o.traces, t)
	return t
}

// counters sums the traces' counters into per-layer metrics.
func (o *observed) counters() map[string]float64 {
	out := map[string]float64{
		"vtime.events_per_op": 0, "vtime.resumes_per_op": 0, "simnet.messages_per_op": 0,
		"simnet.escalations_per_op": 0, "mpi.collectives_per_op": 0,
	}
	for _, t := range o.traces {
		for _, c := range t.Counters() {
			switch c.Name {
			case "vtime.events":
				out["vtime.events_per_op"] += float64(c.Value)
			case "vtime.resumes":
				out["vtime.resumes_per_op"] += float64(c.Value)
			}
		}
		for _, sp := range t.Spans() {
			switch {
			case sp.Cat == obs.CatMessage && sp.Name == "wire":
				out["simnet.messages_per_op"]++
			case sp.Cat == obs.CatFault && sp.Name == "escalation":
				out["simnet.escalations_per_op"]++
			case sp.Cat == obs.CatCollective:
				out["mpi.collectives_per_op"]++
			}
		}
	}
	return out
}

// table1Session estimates the whole model zoo per operation.
type table1Session struct {
	estSession
	cl   *cluster.Cluster
	prof *cluster.TCPProfile
}

// zoo is one full-zoo estimation's output.
type zoo struct {
	file  *models.ModelFile
	reps  []estimate.Report
	walls map[string]float64
}

// estimateZoo runs the five public estimators on one platform. obs,
// when non-nil, supplies a fresh observer for each call.
func (s *table1Session) estimateZoo(seed int64, track int, sp *spanRec, o *observed) (*zoo, error) {
	cfg := mpi.Config{Cluster: s.cl, Profile: s.prof, Seed: seed}
	opt := func() estimate.Options {
		opt := estimate.Options{Parallel: true}
		if o != nil {
			opt.Obs = o.next()
		}
		return opt
	}
	var (
		het   *models.HetHockney
		logp  *models.LogP
		loggp *models.LogGP
		plogp *models.PLogP
		lmo   *models.LMOX
		irr   models.GatherEmpirical
		reps  [5]estimate.Report
	)
	calls := []struct {
		span, metric string
		fn           func() error
	}{
		{"estimate.HetHockney", "estimate.hethockney_s", func() (err error) {
			het, reps[0], err = estimate.HetHockney(cfg, opt())
			return err
		}},
		{"estimate.LogPLogGP", "estimate.logp_s", func() (err error) {
			logp, loggp, reps[1], err = estimate.LogPLogGP(cfg, opt())
			return err
		}},
		{"estimate.PLogP", "estimate.plogp_s", func() (err error) {
			plogp, reps[2], err = estimate.PLogP(cfg, opt())
			return err
		}},
		{"estimate.LMOX", "estimate.lmox_s", func() (err error) {
			lmo, reps[3], err = estimate.LMOX(cfg, opt())
			return err
		}},
		{"estimate.DetectGatherIrregularity", "estimate.irregularity_s", func() (err error) {
			irr, reps[4], err = estimate.DetectGatherIrregularity(cfg, 0, estimate.DefaultScanSizes(), scanReps, opt())
			return err
		}},
	}
	walls := map[string]float64{}
	for _, c := range calls {
		w, err := call(sp, track, c.span, c.fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.span, err)
		}
		walls[c.metric] = w
	}
	lmo.Gather = irr
	mf := models.NewModelFile(het.Averaged(), het, logp, loggp, plogp, lmo)
	mf.Meta = &models.Meta{Cluster: "table1", Nodes: s.cl.N(), Profile: s.prof.Name, Seed: seed}
	return &zoo{file: mf, reps: reps[:], walls: walls}, nil
}

func (s *table1Session) op(c, i int, sp *spanRec) (time.Duration, bool, error) {
	seed := s.seed + int64(i)
	start := time.Now()
	z, err := s.estimateZoo(seed, c, sp, nil)
	lat := time.Since(start)
	if err != nil {
		return lat, true, err
	}
	if err := checkZoo(z.file); err != nil {
		return lat, true, fmt.Errorf("seed %d: %w", seed, err)
	}
	data, err := z.file.Marshal()
	if err != nil {
		return lat, true, err
	}
	sum := sha256.Sum256(data)
	s.account(i, hex.EncodeToString(sum[:]), z.walls, z.reps...)
	return lat, true, nil
}

func (s *table1Session) observe() (map[string]float64, error) {
	var o observed
	if _, err := s.estimateZoo(s.seed, 0, nil, &o); err != nil {
		return nil, err
	}
	return o.counters(), nil
}

// checkZoo requires every estimated parameter to be finite and
// positive, and the gather irregularity to have been found.
func checkZoo(mf *models.ModelFile) error {
	var bad []string
	pos := func(name string, v float64) {
		if !(v > 0) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s=%g", name, v))
		}
	}
	pos("hockney.alpha", mf.Hockney.Alpha)
	pos("hockney.beta", mf.Hockney.Beta)
	het := mf.GetHetHockney()
	for i := range het.Alpha {
		for j := range het.Alpha[i] {
			if i != j {
				pos(fmt.Sprintf("het.alpha[%d][%d]", i, j), het.Alpha[i][j])
				pos(fmt.Sprintf("het.beta[%d][%d]", i, j), het.Beta[i][j])
			}
		}
	}
	pos("logp.L", mf.LogP.L)
	pos("logp.o", mf.LogP.O)
	pos("logp.g", mf.LogP.G)
	pos("loggp.G", mf.LogGP.BigG)
	plogp, err := mf.GetPLogP()
	if err != nil {
		return err
	}
	pos("plogp.L", plogp.L)
	for _, m := range []int{1, 64 << 10} {
		pos(fmt.Sprintf("plogp.g(%d)", m), plogp.Gap(m))
		pos(fmt.Sprintf("plogp.os(%d)", m), plogp.SendOverhead(m))
		pos(fmt.Sprintf("plogp.or(%d)", m), plogp.RecvOverhead(m))
	}
	if err := checkLMO(mf.GetLMO()); err != nil {
		bad = append(bad, err.Error())
	}
	if !mf.GetLMO().Gather.Valid() {
		bad = append(bad, "no gather irregularity detected")
	}
	if len(bad) > 0 {
		return fmt.Errorf("parameters not finite and positive: %v", bad)
	}
	return nil
}

// checkLMO requires the LMO parameters to be finite and positive.
func checkLMO(x *models.LMOX) error {
	for i := range x.C {
		if !(x.C[i] > 0 && x.T[i] > 0) || math.IsInf(x.C[i]+x.T[i], 0) {
			return fmt.Errorf("lmo C[%d]=%g t[%d]=%g", i, x.C[i], i, x.T[i])
		}
		for j := range x.L[i] {
			if i != j && (!(x.L[i][j] > 0 && x.Beta[i][j] > 0) || math.IsInf(x.L[i][j]+x.Beta[i][j], 0)) {
				return fmt.Errorf("lmo L[%d][%d]=%g beta=%g", i, j, x.L[i][j], x.Beta[i][j])
			}
		}
	}
	return nil
}

// fabricSession runs grouped LMO estimation on a 1024-host fat-tree.
type fabricSession struct {
	estSession
	fabric topo.ClassSpec
	cl     *cluster.Cluster
	build  time.Duration
}

// fabricK is the fat-tree arity: k=16 has k³/4 = 1024 hosts in 128
// leaf groups of 8.
const fabricK = 16

func setupFabric(seed int64) (session, error) {
	s := &fabricSession{estSession: newEstSession(seed), fabric: topo.DefaultUplink()}
	start := time.Now()
	s.cl = cluster.FromTopology(topo.FatTree(fabricK, s.fabric), cluster.NodeSpec{}, cluster.LinkSpec{})
	s.build = time.Since(start)
	if s.cl.N() != 1024 {
		return nil, fmt.Errorf("fat-tree k=%d has %d hosts, want 1024", fabricK, s.cl.N())
	}
	return s, nil
}

// groupedOpt are the grouped estimation's options: mpib repetitions
// fixed at 3, so that every operation does the same work.
func groupedOpt() estimate.Options {
	return estimate.Options{Mpib: mpib.Options{MinReps: 3, MaxReps: 3}}
}

func (s *fabricSession) op(c, i int, sp *spanRec) (time.Duration, bool, error) {
	seed := s.seed + int64(i)
	var (
		x   *models.LMOX
		g   *estimate.Grouping
		rep estimate.Report
	)
	wall, err := call(sp, c, "estimate.LMOGrouped", func() (err error) {
		x, g, rep, err = estimate.LMOGrouped(mpi.Config{Cluster: s.cl, Profile: cluster.Ideal(), Seed: seed}, groupedOpt())
		return err
	})
	lat := time.Duration(wall * float64(time.Second))
	if err != nil {
		return lat, true, err
	}
	if err := s.check(x, g); err != nil {
		return lat, true, fmt.Errorf("seed %d: %w", seed, err)
	}
	s.account(i, lmoDigest(x), map[string]float64{"estimate.grouped_s": wall}, rep)
	return lat, true, nil
}

// check compares the estimate with the fabric's ground truth: 128 leaf
// groups of 8, and C, t, L and β within 5% at 0, 2 and 4 hops.
func (s *fabricSession) check(x *models.LMOX, g *estimate.Grouping) error {
	if g.NumGroups() != 128 {
		return fmt.Errorf("detected %d groups, want 128", g.NumGroups())
	}
	for gi, members := range g.Groups {
		if len(members) != 8 {
			return fmt.Errorf("group %d has %d members, want 8", gi, len(members))
		}
	}
	node, access := cluster.DefaultTopoNode(), cluster.DefaultTopoAccess()
	hop, hopInvB := s.fabric.L.Seconds(), 1/s.fabric.Beta
	accessL, accessInvB := access.L.Seconds(), 1/access.Beta
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"C", x.C[0], node.C.Seconds()},
		{"t", x.T[0], node.T},
		{"intra L", x.L[0][1], accessL},
		{"intra beta", x.Beta[0][1], access.Beta},
		{"2-hop L", x.L[0][8], accessL + 2*hop},
		{"2-hop beta", x.Beta[0][8], 1 / (accessInvB + 2*hopInvB)},
		{"4-hop L", x.L[0][64], accessL + 4*hop},
		{"4-hop beta", x.Beta[0][64], 1 / (accessInvB + 4*hopInvB)},
	} {
		if rel := math.Abs(c.got-c.want) / c.want; !(rel <= 0.05) {
			return fmt.Errorf("%s estimated %.4g, ground truth %.4g", c.name, c.got, c.want)
		}
	}
	return checkLMO(x)
}

// lmoDigest hashes the bits of every LMO parameter (marshalling the
// 1024² link matrices as JSON would cost more than the check).
func lmoDigest(x *models.LMOX) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i := range x.C {
		put(x.C[i])
		put(x.T[i])
		for j := range x.L[i] {
			put(x.L[i][j])
			put(x.Beta[i][j])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *fabricSession) observe() (map[string]float64, error) {
	var o observed
	opt := groupedOpt()
	opt.Obs = o.next()
	if _, _, _, err := estimate.LMOGrouped(mpi.Config{Cluster: s.cl, Profile: cluster.Ideal(), Seed: s.seed}, opt); err != nil {
		return nil, err
	}
	return o.counters(), nil
}

func (s *fabricSession) layers() (map[string]float64, error) {
	out, err := s.estSession.layers()
	out["topo.build_s"] = s.build.Seconds()
	return out, err
}
