// Package serve implements the lmoserve prediction service: an
// in-memory registry of estimated models (LRU-bounded, singleflight-
// deduped, circuit-broken), asynchronous estimation jobs backed by the
// campaign engine, and the HTTP API over both — the estimate-once /
// predict-many workflow of the paper's companion tool, as a service
// hardened for production traffic (admission control, load shedding,
// graceful drain, lock-free snapshot reads; see DESIGN.md §10, §12).
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
)

// Key identifies a model set in the registry: the platform it was
// estimated on.
type Key struct {
	Cluster string `json:"cluster"` // cluster name ("table1", ...)
	Nodes   int    `json:"nodes"`   // node count (a prefix of the cluster)
	Profile string `json:"profile"` // TCP profile name ("lam", ...)
	Seed    int64  `json:"seed"`    // randomness seed
}

// String renders the registry key ("table1[16]/lam/seed1").
func (k Key) String() string {
	return fmt.Sprintf("%s[%d]/%s/seed%d", k.Cluster, k.Nodes, k.Profile, k.Seed)
}

// keyOfMeta derives the registry key of a model file's provenance.
func keyOfMeta(m *models.Meta) Key {
	return Key{Cluster: m.Cluster, Nodes: m.Nodes, Profile: m.Profile, Seed: m.Seed}
}

// Entry is a registry-resident model set with its reconstructed
// predictors. Entries are immutable after construction: the snapshot
// read path hands them to concurrent readers without synchronization.
type Entry struct {
	Key Key

	keyStr string // Key.String(), rendered once here for batch responses

	models.Set

	// preds is the set's Predictors, indexed by family (famHockney..famLMO,
	// nil if absent): built once so the kernel never re-derives it per query.
	preds [numFamilies]models.CollectivePredictor

	// lastUsed is the registry's recency stamp (a tick of the
	// registry's access clock). Readers store it without a lock; the
	// eviction scan — on the serialized write path — reads it.
	lastUsed atomic.Int64
}

// newEntry reconstructs the predictors of a model file. The file must
// carry provenance metadata — without it the models cannot be keyed.
func newEntry(mf *models.ModelFile) (*Entry, error) {
	if mf.Meta == nil {
		return nil, fmt.Errorf("serve: model file has no meta (cluster/profile/seed provenance); regenerate it with cmd/estimate -json")
	}
	set, err := mf.Set()
	if err != nil {
		return nil, err
	}
	key := keyOfMeta(mf.Meta)
	return &Entry{Key: key, keyStr: key.String(), Set: set, preds: set.Predictors()}, nil
}

// CacheStats are the registry's monotone counters.
type CacheStats struct {
	Hits        int64 `json:"hits"`        // lookups answered from the cache
	Misses      int64 `json:"misses"`      // lookups that triggered an estimation
	Deduped     int64 `json:"deduped"`     // lookups that joined an in-flight estimation
	Estimations int64 `json:"estimations"` // estimation flights actually started
	Evictions   int64 `json:"evictions"`   // entries dropped by the LRU bound
	Retries     int64 `json:"retries"`     // extra estimation attempts after a failure
	Rejected    int64 `json:"rejected"`    // lookups fast-failed by an open circuit
	Swaps       int64 `json:"swaps"`       // copy-on-write snapshot publications
}

// flight is one in-progress estimation shared by every concurrent
// request for the same key.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// RegistryOptions parameterize the registry's robustness machinery.
// The zero value works: the breaker uses its defaults, and the clock
// and sleep hooks degrade to a frozen clock and an instant (skip)
// sleep — the server wires real ones in its wall-clock-approved files,
// tests wire fakes.
type RegistryOptions struct {
	// Breaker configures the per-key estimation circuit breakers.
	Breaker BreakerConfig
	// Seed seeds the deterministic retry-backoff jitter (default 1).
	Seed int64
	// Now reads a monotonic clock for breaker cooldowns.
	Now func() time.Duration
	// Sleep waits d before a retry, returning false if ctx expired
	// first.
	Sleep func(ctx context.Context, d time.Duration) bool
}

// regSnapshot is one immutable published view of the cache. Readers
// load it with a single atomic pointer read; writers build a fresh map
// and publish it, never mutating a map a reader might hold.
type regSnapshot struct {
	entries map[Key]*Entry
}

// Registry is the LRU-bounded, singleflight-deduped model store.
//
// Reads are lock-free: Lookup/LookupHit resolve against a copy-on-write
// snapshot published through an atomic pointer, so concurrent /predict
// traffic never contends on a mutex — LRU accounting is a per-entry
// atomic recency stamp, off the read path's critical section entirely.
// Writers (Put, estimation completions, evictions) still serialize
// through mu and the existing singleflight/breaker machinery, rebuild
// the entry map, and publish it as the next snapshot.
//
// Concurrent GetOrEstimate calls for the same un-estimated key run one
// estimation; the others wait for it. A per-key circuit breaker guards
// the estimation path: consecutive failures open the circuit and
// subsequent lookups fail fast until a cooldown admits a probe.
type Registry struct {
	snap  atomic.Pointer[regSnapshot]
	clock atomic.Int64 // recency sequence; every access ticks it
	hits  atomic.Int64 // read-path hit counter (lock-free path)
	swaps atomic.Int64 // snapshot publications

	mu      sync.Mutex // serializes writers and the flight table
	cap     int
	flights map[Key]*flight
	stats   CacheStats // write-path counters (Hits/Swaps live in atomics)

	breakers *breakerSet
	sleep    func(ctx context.Context, d time.Duration) bool
	retries  int

	// estimate produces the models for a missing key (injected by the
	// server; tests substitute it).
	estimate func(context.Context, Key) (*models.ModelFile, error)
}

// NewRegistry builds a registry bounded to capacity entries (minimum
// 1) over the given estimator.
func NewRegistry(capacity int, estimate func(context.Context, Key) (*models.ModelFile, error), opt RegistryOptions) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	sleep := opt.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) bool { return ctx.Err() == nil }
	}
	cfg := opt.Breaker.withDefaults()
	r := &Registry{
		cap:      capacity,
		flights:  map[Key]*flight{},
		breakers: newBreakerSet(cfg, opt.Seed, opt.Now),
		sleep:    sleep,
		retries:  cfg.MaxRetries,
		estimate: estimate,
	}
	r.snap.Store(&regSnapshot{entries: map[Key]*Entry{}})
	return r
}

// Put inserts a model file (from a preload or a completed estimation
// job), evicting the least-recently-used entry beyond capacity.
func (r *Registry) Put(mf *models.ModelFile) (*Entry, error) {
	e, err := newEntry(mf)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insertLocked(e)
	return e, nil
}

// insertLocked adds e to a fresh copy of the current snapshot, evicts
// beyond capacity, and publishes the copy. Callers hold mu.
func (r *Registry) insertLocked(e *Entry) {
	old := r.snap.Load().entries
	next := make(map[Key]*Entry, len(old)+1)
	// Map-to-map copy: entries are independent, insertion order cannot
	// leak into the (unordered) result.
	//lmovet:commutative
	for k, v := range old {
		next[k] = v
	}
	e.lastUsed.Store(r.clock.Add(1))
	next[e.Key] = e
	for len(next) > r.cap {
		var victim Key
		oldest := int64(1<<63 - 1)
		// Min-scan over unique recency stamps: the minimum is the same
		// whatever order the map yields.
		//lmovet:commutative
		for k, v := range next {
			if lu := v.lastUsed.Load(); lu < oldest {
				oldest, victim = lu, k
			}
		}
		delete(next, victim)
		r.stats.Evictions++
	}
	r.publishLocked(next)
}

// publishLocked installs entries as the next snapshot. Callers hold mu.
func (r *Registry) publishLocked(entries map[Key]*Entry) {
	r.snap.Store(&regSnapshot{entries: entries})
	r.swaps.Add(1)
}

// LookupHit returns the cached entry without estimating, stamping its
// recency and counting a cache hit. It is the /predict fast path, which
// must not touch admission control, the estimation machinery, or any
// lock: a snapshot load, a map probe and two atomic adds.
//
//lmovet:hotpath
func (r *Registry) LookupHit(k Key) (*Entry, bool) {
	e, ok := r.snap.Load().entries[k]
	if !ok {
		return nil, false
	}
	e.lastUsed.Store(r.clock.Add(1))
	r.hits.Add(1)
	return e, true
}

// GetOrEstimate returns the entry for k, estimating it when absent.
// The boolean reports a cache hit. Concurrent calls for the same
// missing key share one estimation; a joiner whose context expires
// stops waiting and returns the context error. When k's circuit is
// open the call fails fast with a *BreakerOpenError and no estimation
// is attempted.
func (r *Registry) GetOrEstimate(ctx context.Context, k Key) (*Entry, bool, error) {
	if e, ok := r.LookupHit(k); ok {
		return e, true, nil
	}
	r.mu.Lock()
	// Re-check under the writer lock: an estimation may have landed
	// between the lock-free probe and here.
	if e, ok := r.snap.Load().entries[k]; ok {
		e.lastUsed.Store(r.clock.Add(1))
		r.hits.Add(1)
		r.mu.Unlock()
		return e, true, nil
	}
	if f, ok := r.flights[k]; ok {
		r.stats.Deduped++
		r.mu.Unlock()
		select {
		case <-f.done:
			return f.entry, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if err := r.breakers.allow(k); err != nil {
		r.stats.Rejected++
		r.mu.Unlock()
		return nil, false, err
	}
	f := &flight{done: make(chan struct{})}
	r.flights[k] = f
	r.stats.Misses++
	r.stats.Estimations++
	r.mu.Unlock()

	mf, err := r.runEstimate(ctx, k)
	var entry *Entry
	if err == nil {
		entry, err = newEntry(mf)
	}
	if err == nil && entry.Key != k {
		err = fmt.Errorf("serve: estimator returned models for %v, requested %v", entry.Key, k)
	}

	r.mu.Lock()
	if err == nil {
		r.insertLocked(entry)
	}
	f.entry, f.err = entry, err
	delete(r.flights, k)
	r.mu.Unlock()
	close(f.done)
	return entry, false, err
}

// runEstimate is one flight's attempt loop: estimate, and on failure
// retry with exponential backoff and deterministic seeded jitter until
// the retry budget is spent, the circuit opens, or the context
// expires. Breaker accounting happens per attempt.
func (r *Registry) runEstimate(ctx context.Context, k Key) (*models.ModelFile, error) {
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			r.stats.Retries++
			r.mu.Unlock()
			if !r.sleep(ctx, r.breakers.backoff(k, attempt)) {
				return nil, ctx.Err()
			}
		}
		mf, err := r.estimate(ctx, k)
		if err == nil {
			r.breakers.onSuccess(k)
			return mf, nil
		}
		lastErr = err
		if opened := r.breakers.onFailure(k); opened {
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// BreakerStates snapshots the per-key circuit breakers, sorted by key.
func (r *Registry) BreakerStates() []BreakerStatus { return r.breakers.states() }

// byRecency returns the snapshot's entries sorted most recently used
// first. Stamps are unique (a strictly increasing atomic sequence), so
// the order is total and deterministic for a quiesced registry.
func (r *Registry) byRecency() []*Entry {
	s := r.snap.Load().entries
	out := make([]*Entry, 0, len(s))
	// Collecting every value for a full sort: order-independent.
	//lmovet:commutative
	for _, e := range s {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].lastUsed.Load() > out[j-1].lastUsed.Load(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Keys lists the cached keys, most recently used first.
func (r *Registry) Keys() []Key {
	es := r.byRecency()
	out := make([]Key, len(es))
	for i, e := range es {
		out[i] = e.Key
	}
	return out
}

// Entries snapshots the cached entries, most recently used first,
// without touching the recency stamps.
func (r *Registry) Entries() []*Entry { return r.byRecency() }

// Stats snapshots the cache counters.
func (r *Registry) Stats() CacheStats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	st.Hits = r.hits.Load()
	st.Swaps = r.swaps.Load()
	return st
}

// Swaps is the number of snapshot publications so far.
func (r *Registry) Swaps() int64 { return r.swaps.Load() }

// Len is the number of cached entries.
func (r *Registry) Len() int { return len(r.snap.Load().entries) }
