package tuned

import (
	"encoding/json"
	"fmt"

	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/optimize"
)

// TableVersion is the decision-table envelope version this build reads
// and writes. Readers reject any other version with a clear error
// instead of decoding garbage — the same envelope idiom as the model
// files (models.FileVersion) and cluster manifests.
const TableVersion = 1

// Op names the collective operation a tuning rule governs.
type Op string

// The operations the auto-tuner emits rules for.
const (
	OpScatter Op = "scatter"
	OpGather  Op = "gather"
)

// Rule is one tuning decision: for Op on message sizes in
// [MinBytes, MaxBytes) — MaxBytes 0 means unbounded — run Alg with the
// given k-ary tree degree and segment size (0 each when unused). The
// prediction provenance rides along so a served table explains itself.
type Rule struct {
	Op       Op     `json:"op"`
	MinBytes int    `json:"min_bytes"`
	MaxBytes int    `json:"max_bytes,omitempty"`
	Alg      string `json:"alg"`
	Degree   int    `json:"degree,omitempty"`
	Segment  int    `json:"segment,omitempty"`

	// PredictedS is the closed-form model prediction that promoted the
	// candidate; SimulatedS the event-simulated makespan that confirmed
	// it (0 when the rule was not validated).
	PredictedS float64 `json:"predicted_s,omitempty"`
	SimulatedS float64 `json:"simulated_s,omitempty"`
}

// Shape is the collective shape the rule runs; it fails when the
// algorithm name does not parse.
func (r Rule) Shape() (optimize.Shape, error) {
	alg, err := collective.ParseAlg(r.Alg)
	return optimize.Shape{Alg: alg, Degree: r.Degree, Segment: r.Segment}, err
}

// String renders the rule's shape ("linear+seg4096", "binary/k=4"), or
// only its algorithm name when that does not parse.
func (r Rule) String() string {
	s, err := r.Shape()
	if err != nil {
		return r.Alg
	}
	return s.String()
}

// Table is a versioned collective-tuning decision table: the
// auto-tuner's output, keyed by (operation, message-size range) for
// one platform. Meta pins the cluster, profile and seed the decisions
// were derived on, exactly like a model file's provenance.
type Table struct {
	Version int          `json:"version"`
	Meta    *models.Meta `json:"meta,omitempty"`
	Root    int          `json:"root"`
	Rules   []Rule       `json:"rules"`
}

// Validate checks the table's internal consistency: known operations,
// parseable algorithms, sane degrees and segments, and per-operation
// rules sorted by ascending, non-overlapping size ranges.
func (t *Table) Validate() error {
	lastMax := map[Op]int{}
	open := map[Op]bool{}
	for i, r := range t.Rules {
		if r.Op != OpScatter && r.Op != OpGather {
			return fmt.Errorf("tuned: rule %d has unknown op %q", i, r.Op)
		}
		if _, err := r.Shape(); err != nil {
			return fmt.Errorf("tuned: rule %d: %w", i, err)
		}
		if r.Degree != 0 && r.Degree < 2 {
			return fmt.Errorf("tuned: rule %d has tree degree %d (want 0 or >= 2)", i, r.Degree)
		}
		if r.Segment < 0 {
			return fmt.Errorf("tuned: rule %d has negative segment %d", i, r.Segment)
		}
		if r.MinBytes < 0 {
			return fmt.Errorf("tuned: rule %d has negative min_bytes %d", i, r.MinBytes)
		}
		if r.MaxBytes != 0 && r.MaxBytes <= r.MinBytes {
			return fmt.Errorf("tuned: rule %d has empty range [%d, %d)", i, r.MinBytes, r.MaxBytes)
		}
		if open[r.Op] {
			return fmt.Errorf("tuned: rule %d for %s follows an unbounded rule", i, r.Op)
		}
		if r.MinBytes < lastMax[r.Op] {
			return fmt.Errorf("tuned: rule %d for %s overlaps the previous range (min %d < %d)", i, r.Op, r.MinBytes, lastMax[r.Op])
		}
		if r.MaxBytes == 0 {
			open[r.Op] = true
		}
		lastMax[r.Op] = r.MaxBytes
	}
	return nil
}

// Lookup returns the rule covering an m-byte operation, if any.
func (t *Table) Lookup(op Op, m int) (Rule, bool) {
	for _, r := range t.Rules {
		if r.Op != op || m < r.MinBytes {
			continue
		}
		if r.MaxBytes == 0 || m < r.MaxBytes {
			return r, true
		}
	}
	return Rule{}, false
}

// Marshal renders the table as indented JSON with the current envelope
// version stamped.
func (t *Table) Marshal() ([]byte, error) {
	t.Version = TableVersion
	return json.MarshalIndent(t, "", "  ")
}

// UnmarshalTable parses a decision table, enforcing the envelope
// version and validating the rules.
func UnmarshalTable(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tuned: parsing decision table: %w", err)
	}
	switch {
	case t.Version == 0:
		return nil, fmt.Errorf("tuned: decision table has no version field; regenerate it with the auto-tuner")
	case t.Version != TableVersion:
		return nil, fmt.Errorf("tuned: decision table version %d is not supported (this build reads version %d); regenerate it with the auto-tuner", t.Version, TableVersion)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
