package campaign

import "sync/atomic"

// Stats are live campaign progress counters, safe for concurrent
// reads while the campaign runs — the substrate for a serving layer's
// worker-utilization metrics.
type Stats struct {
	Total    atomic.Int64 // tasks in the grid
	Done     atomic.Int64 // tasks completed (ok or failed)
	Failed   atomic.Int64 // tasks that produced an error
	Panicked atomic.Int64 // tasks whose error was a captured panic
	Busy     atomic.Int64 // workers currently executing a task
	Workers  atomic.Int64 // pool size
}

// Snapshot is a consistent-enough copy of the counters for reporting.
type Snapshot struct {
	Total    int64 `json:"total"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Panicked int64 `json:"panicked,omitempty"`
	Busy     int64 `json:"busy"`
	Workers  int64 `json:"workers"`
}

// Snapshot reads the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Total:    s.Total.Load(),
		Done:     s.Done.Load(),
		Failed:   s.Failed.Load(),
		Panicked: s.Panicked.Load(),
		Busy:     s.Busy.Load(),
		Workers:  s.Workers.Load(),
	}
}
