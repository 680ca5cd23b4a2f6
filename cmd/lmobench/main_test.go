package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_seed1.golden")

// TestBadFlagsExit2: every usage error exits 2 with its message on
// stderr, before any experiment runs, so stdout stays empty.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown flag", []string{"-nope"}, "flag provided but not defined: -nope"},
		{"unknown experiment", []string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{"unknown profile", []string{"-mpi", "openmpi"}, `unknown -mpi "openmpi"`},
		{"tuned without tune", []string{"-exp", "fig1", "-tuned", "t.json"}, "-tuned only applies to -exp tune"},
		{"gantt without seeds", []string{"-exp", "fig1", "-gantt", "g.json"}, "-gantt requires a -seeds sweep"},
		{"zero reps", []string{"-exp", "fig1", "-reps", "0"}, "-reps 0: an observation needs at least one repetition"},
		{"negative reps", []string{"-exp", "fig1", "-reps", "-3"}, "-reps -3: an observation needs at least one repetition"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout should be empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.wantErr, stderr.String())
			}
		})
	}
}

// wallClock matches the one line of each report that reads the wall
// clock.
var wallClock = regexp.MustCompile(`(?m)^\((\S+) completed in \S+ wall-clock\)$`)

// TestAllSeed1Golden pins the whole evaluation's output, every figure,
// table and study at seed 1, with each report's wall-clock line masked.
// A change that moves a simulated time or a rendered figure fails it;
// regenerate with -update when the move is by design.
func TestAllSeed1Golden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
	}
	got := wallClock.ReplaceAll(stdout.Bytes(), []byte("($1 completed in … wall-clock)"))
	path := filepath.Join("testdata", "all_seed1.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
