package main

import (
	"bytes"
	"strings"
	"testing"
)

// binomialScatter4 is the swimlane of a 32 KiB binomial scatter on the
// first four Table I nodes under LAM (seed 1, 40 columns).
const binomialScatter4 = `binomial scatter of 32768-byte blocks, 4 nodes, root 0, LAM 7.1.3 profile:

rank  0 |SSSSS                                   |
rank  1 |    ~~~~~~~rrrrrr                       |
rank  2 |   ~~~~~~~~~~~~~~~~~rrrSSS              |
rank  3 |                         ~~~~~~~rrrrrrrr|
         0                              2.463697ms
         S=send CPU  ~=in flight  r=deliver→processed
`

func TestRun(t *testing.T) {
	pinned := []string{"-op", "scatter", "-alg", "binomial", "-m", "32768", "-n", "4", "-mpi", "lam", "-w", "40"}
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout func(t *testing.T, out string)
		stderr string // substring; empty means stderr must be empty
	}{
		{
			name: "pinned swimlanes",
			args: pinned,
			stdout: func(t *testing.T, out string) {
				if out != binomialScatter4 {
					t.Fatalf("swimlanes:\n%s\nwant:\n%s", out, binomialScatter4)
				}
			},
		},
		{
			name: "verbose prints the lifecycle log",
			args: append([]string{"-v"}, pinned...),
			stdout: func(t *testing.T, out string) {
				swim, log, ok := strings.Cut(out, "\nevent log:\n")
				if !ok || swim != binomialScatter4 {
					t.Fatalf("want the swimlanes, then the event log:\n%s", out)
				}
				lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
				if len(lines) != 3*4 {
					t.Fatalf("log has %d lines, want 3 messages × 4 steps:\n%s", len(lines), log)
				}
				kinds := map[string]int{}
				for _, l := range lines {
					f := strings.Fields(l)
					if len(f) != 4 || strings.Contains(l, "tag=") {
						t.Fatalf("malformed log line %q", l)
					}
					kinds[f[1]]++
				}
				for _, k := range []string{"send-start", "inject", "deliver", "recv-done"} {
					if kinds[k] != 3 {
						t.Fatalf("%d %s lines, want 3:\n%s", kinds[k], k, log)
					}
				}
			},
		},
		{name: "bad op", args: []string{"-op", "allgather"}, code: 2, stderr: `timeline: unknown -op "allgather"`},
		{name: "bad alg", args: []string{"-alg", "ring"}, code: 2, stderr: `timeline: unknown -alg "ring"`},
		{name: "bad mpi", args: []string{"-mpi", "openmpi"}, code: 2, stderr: `timeline: unknown -mpi "openmpi"`},
		{name: "too few nodes", args: []string{"-n", "1"}, code: 2, stderr: "timeline: -n must be in [2, 16]"},
		{name: "too many nodes", args: []string{"-n", "17"}, code: 2, stderr: "timeline: -n must be in [2, 16]"},
		{name: "negative size", args: []string{"-m", "-1"}, code: 2, stderr: "timeline: -m must be non-negative"},
		{name: "root out of range", args: []string{"-root", "8"}, code: 2, stderr: "root 8 out of range"},
		{name: "bad flag", args: []string{"-nope"}, code: 2, stderr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.stdout != nil {
				tc.stdout(t, stdout.String())
			} else if stdout.Len() != 0 {
				t.Fatalf("stdout should be empty, got:\n%s", stdout.String())
			}
			if tc.stderr == "" {
				if stderr.Len() != 0 {
					t.Fatalf("stderr should be empty, got:\n%s", stderr.String())
				}
			} else if !strings.Contains(stderr.String(), tc.stderr) || strings.Contains(stderr.String(), "panic") {
				t.Fatalf("stderr %q, want %q and no panic", stderr.String(), tc.stderr)
			}
		})
	}
}
