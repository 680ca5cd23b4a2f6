package analysis

import "strings"

// Suite is every lmovet analyzer, in report order. Directiveaudit is
// last by contract: it reads the usage marks the others leave on the
// shared directive index.
var Suite = []*Analyzer{Walltime, Globalrand, Maporder, Vtimeblock, Hotalloc, Snapshotmut, Atomicmix, Poolreuse, Directiveaudit}

// deterministicPkgs are the packages that make up the virtual-time
// universe: everything whose behavior must be a pure function of
// configuration and seed, because golden traces and parameter dumps
// are diffed byte-for-byte against them. Wall-clock access and
// order-sensitive map iteration are forbidden here.
var deterministicPkgs = map[string]bool{
	"repro/internal/vtime":      true,
	"repro/internal/simnet":     true,
	"repro/internal/mpi":        true,
	"repro/internal/mpib":       true,
	"repro/internal/collective": true,
	"repro/internal/estimate":   true,
	"repro/internal/faults":     true,
	"repro/internal/models":     true,
	"repro/internal/experiment": true,
	"repro/internal/autotune":   true,
	"repro/internal/tuned":      true,
	"repro/internal/obs":        true,
	"repro/internal/topo":       true,
}

// wallClockAllowed lists the packages that legitimately touch the host
// clock: the campaign scheduler times real work and the cmd binaries
// talk to humans.
//
// The list is maintained for documentation and for Scope's benefit; a
// package is wall-clock-legitimate exactly when it is not
// deterministic and not file-scoped (see wallClockFileAllowed).
var wallClockAllowed = []string{
	"repro/internal/campaign",
	"repro/cmd/",
}

// wallClockFileAllowed scopes wall-clock access inside otherwise
// clock-free packages to a named set of files. The serve package's
// robustness machinery (admission control, circuit breakers, the job
// store, retry backoff) is clock-free by construction — it reads
// monotonic time through injected funcs so the chaos suite can drive
// it deterministically — and only the server-lifecycle files may wire
// the real clock in.
var wallClockFileAllowed = map[string]map[string]bool{
	"repro/internal/serve": {
		"server.go":    true, // request latency timestamps
		"lifecycle.go": true, // drain grace, manifest timestamps, real clock/sleep wiring
		"metrics.go":   true, // uptime and latency exposition
	},
}

// WallClockFileAllowed reports whether the named file (base name) of
// the package at path may read the wall clock even though the package
// is otherwise in the walltime analyzer's scope.
func WallClockFileAllowed(path, file string) bool {
	return wallClockFileAllowed[path][file]
}

// WallClockFileScoped reports whether the package at path restricts
// wall-clock access to an approved file list.
func WallClockFileScoped(path string) bool {
	_, ok := wallClockFileAllowed[path]
	return ok
}

// IsDeterministic reports whether the package at the given import path
// belongs to the deterministic universe.
func IsDeterministic(path string) bool { return deterministicPkgs[path] }

// Scope returns the analyzers lmovet runs on the package with the
// given import path:
//
//   - walltime: deterministic packages, plus file-scoped packages
//     (repro/internal/serve: clock-free outside the approved
//     server-lifecycle files; see wallClockAllowed and
//     wallClockFileAllowed);
//   - globalrand, maporder: everywhere under internal/ — a seeded RNG
//     and stable iteration order are output-stability requirements for
//     the serving and reporting layers too;
//   - vtimeblock: everywhere except the vtime kernel itself, whose
//     coroutine switches implement the primitive the check protects;
//   - hotalloc: everywhere (it only fires inside //lmovet:hotpath
//     functions);
//   - snapshotmut, atomicmix, poolreuse: everywhere — the concurrency
//     invariants they enforce (copy-on-write publication, unmixed
//     atomics, pooled-object lifecycle) are not package-specific;
//   - directiveaudit: everywhere, and always LAST, so the usage marks
//     left by the analyzers above are complete when it reads them.
func Scope(path string) []*Analyzer {
	var out []*Analyzer
	if IsDeterministic(path) || WallClockFileScoped(path) {
		out = append(out, Walltime)
	}
	if strings.HasPrefix(path, "repro/internal/") {
		out = append(out, Globalrand, Maporder)
	}
	if path != "repro/internal/vtime" {
		out = append(out, Vtimeblock)
	}
	out = append(out, Hotalloc, Snapshotmut, Atomicmix, Poolreuse, Directiveaudit)
	return out
}
