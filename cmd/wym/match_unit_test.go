package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBlockingConfigFlags pins the flag → StreamConfig assembly,
// including the -attrs list parsing and its error path.
func TestBlockingConfigFlags(t *testing.T) {
	o := matchOptions{maxDF: 0.2, minShared: 2, jaccard: 0.1, indexMemMB: 8, topK: 7, attrs: " 0, 2 "}
	cfg, err := o.blockingConfig(true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxDF != 0.2 || cfg.MinShared != 2 || cfg.JaccardFloor != 0.1 {
		t.Fatalf("filters not carried: %+v", cfg)
	}
	if cfg.MemoryBudget != 8<<20 || cfg.TopK != 7 || !cfg.Self {
		t.Fatalf("stream knobs not carried: %+v", cfg)
	}
	if len(cfg.Attrs) != 2 || cfg.Attrs[0] != 0 || cfg.Attrs[1] != 2 {
		t.Fatalf("attrs = %v", cfg.Attrs)
	}

	o.attrs = "0,x"
	if _, err := o.blockingConfig(false); err == nil {
		t.Fatal("bad -attrs entry accepted")
	}
}

// TestMatchRejectsChunkBelowOne checks that `wym match` and `wym dedup`
// refuse a -chunk below 1 before they load any input: the job's chunk
// count divides by it. Every input path is missing, so an error about
// anything but -chunk means the flag was not checked first.
func TestMatchRejectsChunkBelowOne(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"match", []string{"-left", missing, "-right", missing}},
		{"dedup", []string{"-in", missing}},
	} {
		for _, chunk := range []string{"0", "-1"} {
			args := append([]string{"-model", missing, "-chunk", chunk}, tc.args...)
			err := runMatchCmd(context.Background(), tc.name, args)
			if err == nil || !strings.Contains(err.Error(), "-chunk") {
				t.Errorf("wym %s -chunk %s: err = %v, want a -chunk usage error", tc.name, chunk, err)
			}
		}
	}
}

// TestFileFNV checks the model fingerprint is content-derived and that
// a missing file reports an error rather than fingerprint zero.
func TestFileFNV(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("model bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("model bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	fa, err := fileFNV(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fileFNV(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("same content, different fingerprints: %x vs %x", fa, fb)
	}
	if err := os.WriteFile(b, []byte("other bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fb, _ = fileFNV(b); fa == fb {
		t.Fatal("different content, same fingerprint")
	}
	if _, err := fileFNV(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file fingerprinted without error")
	}
}
