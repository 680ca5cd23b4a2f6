package models

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/stats"
)

// ModelFile is the on-disk representation of an estimated model set:
// the paper's companion tool estimates parameters once and reuses them
// for prediction and optimization later. Only the fields of the models
// present are populated.
type ModelFile struct {
	Version int `json:"version"`

	// Meta identifies the platform the models were estimated on; a
	// serving layer uses it to key its registry. Optional: files from
	// older tool versions have none.
	Meta *Meta `json:"meta,omitempty"`

	Hockney    *Hockney        `json:"hockney,omitempty"`
	HetHockney *hetHockneyJSON `json:"het_hockney,omitempty"`
	LogP       *LogP           `json:"logp,omitempty"`
	LogGP      *LogGP          `json:"loggp,omitempty"`
	PLogP      *plogpJSON      `json:"plogp,omitempty"`
	LMO        *lmoJSON        `json:"lmo,omitempty"`
}

// Set is one platform's servable models: the six families a model file
// carries and lmoserve predicts with. A nil field is a family the set
// lacks.
type Set struct {
	Hom   *Hockney
	Het   *HetHockney
	LogP  *LogP
	LogGP *LogGP
	PLogP *PLogP
	LMO   *LMOX
}

// Predictors returns the set's models in lmoserve's render order:
// hockney, het-hockney, logp, loggp, plogp, lmo. An absent family's
// slot is a nil interface, never a boxed nil pointer, so p == nil
// tests presence.
func (s Set) Predictors() [6]CollectivePredictor {
	slot := func(present bool, p CollectivePredictor) CollectivePredictor {
		if present {
			return p
		}
		return nil
	}
	return [6]CollectivePredictor{slot(s.Hom != nil, s.Hom), slot(s.Het != nil, s.Het), slot(s.LogP != nil, s.LogP),
		slot(s.LogGP != nil, s.LogGP), slot(s.PLogP != nil, s.PLogP), slot(s.LMO != nil, s.LMO)}
}

// File is the inverse of ModelFile.Set: the model file that carries
// the set's models, without provenance.
func (s Set) File() *ModelFile {
	return NewModelFile(s.Hom, s.Het, s.LogP, s.LogGP, s.PLogP, s.LMO)
}

// Set reconstructs the file's models. It fails on malformed PLogP knot
// lists and on per-node parameters that do not describe one cluster of
// n processors: het-Hockney's α and β must be n×n, LMO's C and t n long
// and its L and β n×n, so that no prediction indexes past them. Both
// families must cover the same n, and so must the file's provenance
// when it names a node count, so that a server keying the set by its
// provenance never serves a family that refuses the key's node count.
func (mf *ModelFile) Set() (Set, error) {
	plogp, err := mf.GetPLogP()
	if err != nil {
		return Set{}, err
	}
	n := -1 // the per-node families' node count, once one is seen
	if h := mf.HetHockney; h != nil {
		n = len(h.Alpha)
		if err := errors.Join(square("het_hockney alpha", h.Alpha, n), square("het_hockney beta", h.Beta, n)); err != nil {
			return Set{}, err
		}
	}
	if l := mf.LMO; l != nil {
		if n >= 0 && len(l.C) != n {
			return Set{}, fmt.Errorf("models: het_hockney covers %d nodes and lmo %d", n, len(l.C))
		}
		n = len(l.C)
		if len(l.T) != n {
			return Set{}, fmt.Errorf("models: lmo has %d c values and %d t values", n, len(l.T))
		}
		if err := errors.Join(square("lmo l", l.L, n), square("lmo beta", l.Beta, n)); err != nil {
			return Set{}, err
		}
	}
	if m := mf.Meta; m != nil && m.Nodes != 0 && n >= 0 && m.Nodes != n {
		return Set{}, fmt.Errorf("models: meta names %d nodes, the per-node models cover %d", m.Nodes, n)
	}
	return Set{Hom: mf.Hockney, Het: mf.GetHetHockney(), LogP: mf.LogP,
		LogGP: mf.LogGP, PLogP: plogp, LMO: mf.GetLMO()}, nil
}

// square reports an error unless the named matrix is n×n.
func square(name string, m [][]float64, n int) error {
	if len(m) != n {
		return fmt.Errorf("models: %s has %d rows, want %d", name, len(m), n)
	}
	for i, row := range m {
		if len(row) != n {
			return fmt.Errorf("models: %s row %d has %d entries, want %d", name, i, len(row), n)
		}
	}
	return nil
}

// Meta records the estimation provenance of a model file: which
// cluster, TCP profile and seed the experiments ran on.
type Meta struct {
	Cluster string `json:"cluster"`        // cluster name ("table1", ...)
	Nodes   int    `json:"nodes"`          // number of nodes estimated on
	Profile string `json:"profile"`        // TCP profile name ("lam", ...)
	Seed    int64  `json:"seed"`           // randomness seed of the runs
	Est     string `json:"est,omitempty"`  // estimation schedule note
	Tool    string `json:"tool,omitempty"` // producing command
}

// hetHockneyJSON mirrors HetHockney with exported JSON fields.
type hetHockneyJSON struct {
	Alpha [][]float64 `json:"alpha"`
	Beta  [][]float64 `json:"beta"`
}

// plogpJSON flattens the piecewise-linear parameters into knot lists.
type plogpJSON struct {
	L  float64   `json:"l"`
	P  int       `json:"p"`
	GX []float64 `json:"g_x"`
	GY []float64 `json:"g_y"`
	SX []float64 `json:"os_x"`
	SY []float64 `json:"os_y"`
	RX []float64 `json:"or_x"`
	RY []float64 `json:"or_y"`
}

// lmoJSON mirrors LMOX plus the empirical gather parameters.
type lmoJSON struct {
	C     []float64    `json:"c"`
	T     []float64    `json:"t"`
	L     [][]float64  `json:"l"`
	Beta  [][]float64  `json:"beta"`
	M1    int          `json:"m1,omitempty"`
	M2    int          `json:"m2,omitempty"`
	Modes []stats.Mode `json:"escalation_modes,omitempty"`
	PLow  float64      `json:"prob_low,omitempty"`
	PHigh float64      `json:"prob_high,omitempty"`
}

// NewModelFile bundles models for serialization; nil entries are
// omitted.
func NewModelFile(hom *Hockney, het *HetHockney, logp *LogP, loggp *LogGP, plogp *PLogP, lmo *LMOX) *ModelFile {
	mf := &ModelFile{Version: FileVersion, Hockney: hom, LogP: logp, LogGP: loggp}
	if het != nil {
		mf.HetHockney = &hetHockneyJSON{Alpha: het.Alpha, Beta: het.Beta}
	}
	if plogp != nil {
		pj := &plogpJSON{L: plogp.L, P: plogp.P}
		pj.GX, pj.GY = knots(plogp.G)
		pj.SX, pj.SY = knots(plogp.OS)
		pj.RX, pj.RY = knots(plogp.OR)
		mf.PLogP = pj
	}
	if lmo != nil {
		mf.LMO = &lmoJSON{
			C: lmo.C, T: lmo.T, L: lmo.L, Beta: lmo.Beta,
			M1: lmo.Gather.M1, M2: lmo.Gather.M2,
			Modes: lmo.Gather.EscModes, PLow: lmo.Gather.ProbLow, PHigh: lmo.Gather.ProbHigh,
		}
	}
	return mf
}

func knots(p *stats.PWLinear) (xs, ys []float64) {
	for i := 0; i < p.NumKnots(); i++ {
		x, y := p.Knot(i)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// Marshal renders the model file as indented JSON.
func (mf *ModelFile) Marshal() ([]byte, error) {
	return json.MarshalIndent(mf, "", "  ")
}

// FileVersion is the model-file envelope version this build reads and
// writes. Readers reject any other version with a clear error instead
// of decoding garbage.
const FileVersion = 1

// UnmarshalModelFile parses a model file and reconstructs the models.
// The envelope version must match FileVersion exactly: a missing
// version (0) marks a file that predates the envelope, a higher one a
// file from a newer tool.
func UnmarshalModelFile(data []byte) (*ModelFile, error) {
	var mf ModelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("models: parsing model file: %w", err)
	}
	switch {
	case mf.Version == 0:
		return nil, fmt.Errorf("models: model file has no version field; regenerate it with cmd/estimate -json")
	case mf.Version != FileVersion:
		return nil, fmt.Errorf("models: model file version %d is not supported (this build reads version %d); regenerate it with cmd/estimate -json", mf.Version, FileVersion)
	}
	return &mf, nil
}

// GetHetHockney reconstructs the heterogeneous Hockney model, or nil.
func (mf *ModelFile) GetHetHockney() *HetHockney {
	if mf.HetHockney == nil {
		return nil
	}
	return &HetHockney{Alpha: mf.HetHockney.Alpha, Beta: mf.HetHockney.Beta}
}

// GetPLogP reconstructs the PLogP model, or nil. It returns an error
// if the knot lists are malformed.
func (mf *ModelFile) GetPLogP() (*PLogP, error) {
	if mf.PLogP == nil {
		return nil, nil
	}
	g, err := stats.NewPWLinear(mf.PLogP.GX, mf.PLogP.GY)
	if err != nil {
		return nil, fmt.Errorf("models: plogp g knots: %w", err)
	}
	os, err := stats.NewPWLinear(mf.PLogP.SX, mf.PLogP.SY)
	if err != nil {
		return nil, fmt.Errorf("models: plogp o_s knots: %w", err)
	}
	or, err := stats.NewPWLinear(mf.PLogP.RX, mf.PLogP.RY)
	if err != nil {
		return nil, fmt.Errorf("models: plogp o_r knots: %w", err)
	}
	return &PLogP{L: mf.PLogP.L, OS: os, OR: or, G: g, P: mf.PLogP.P}, nil
}

// GetLMO reconstructs the extended LMO model, or nil.
func (mf *ModelFile) GetLMO() *LMOX {
	if mf.LMO == nil {
		return nil
	}
	return &LMOX{
		C: mf.LMO.C, T: mf.LMO.T, L: mf.LMO.L, Beta: mf.LMO.Beta,
		Gather: GatherEmpirical{
			M1: mf.LMO.M1, M2: mf.LMO.M2,
			EscModes: mf.LMO.Modes, ProbLow: mf.LMO.PLow, ProbHigh: mf.LMO.PHigh,
		},
	}
}
