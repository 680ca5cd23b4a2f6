package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

// Every startup failure exits 2 before serving: the reason goes to
// stderr and nothing to stdout.
func TestStartupFailuresExit2(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	malformed := write("malformed.json", []byte("{"))
	mf := models.Set{Hom: &models.Hockney{Alpha: 1e-4, Beta: 1e-8}}.File()
	mf.Meta = &models.Meta{Cluster: "table1", Nodes: 4, Profile: "openmpi", Seed: 1}
	data, err := mf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	unknown := write("openmpi.json", data)
	missing := filepath.Join(dir, "missing.json")

	// A port this test holds cannot be bound again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
		{"malformed value", []string{"-lru", "many"}, `invalid value "many" for flag -lru`},
		{"unreadable models file", []string{"-models", missing}, "lmoserve: open " + missing},
		{"malformed models file", []string{"-models", malformed}, "lmoserve: " + malformed + ": models: parsing model file"},
		{"unknown preload profile", []string{"-models", unknown}, `lmoserve: serve: preloading models: unknown profile "openmpi"`},
		{"address in use", []string{"-addr", busy}, "lmoserve: listen tcp " + busy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stdout %q, stderr %q; want empty stdout and %q on stderr", stdout.String(), stderr.String(), tc.want)
			}
		})
	}
}
