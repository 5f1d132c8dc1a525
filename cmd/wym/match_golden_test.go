package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wym"
	"wym/internal/data"
	"wym/internal/datagen"
)

// matchFixture is the shared test fixture for the match/dedup tests: one
// trained model plus a small deterministic table pair, built once per
// test binary (training dominates the cost).
type matchFixture struct {
	dir        string // holds matcher.gob, left.csv, right.csv, truth.csv
	modelPath  string
	leftPath   string
	rightPath  string
	truthPath  string
	buildError error
}

var (
	fixtureOnce sync.Once
	fixture     matchFixture
)

// matchTestFixture trains an S-BR model, saves it, and writes the S-BR
// table pair the match tests run against.
func matchTestFixture(t *testing.T) *matchFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wym-match-fixture-*")
		if err != nil {
			fixture.buildError = err
			return
		}
		fixture.dir = dir
		d, ok := wym.DatasetByKey("S-BR", 1.0)
		if !ok {
			fixture.buildError = os.ErrNotExist
			return
		}
		train, valid, _, err := d.Split(0.6, 0.2, 1)
		if err != nil {
			fixture.buildError = err
			return
		}
		cfg := wym.DefaultConfig()
		cfg.Seed = 1
		sys, err := wym.Train(train, valid, cfg)
		if err != nil {
			fixture.buildError = err
			return
		}
		fixture.modelPath = filepath.Join(dir, "matcher.gob")
		if err := sys.SaveFile(fixture.modelPath); err != nil {
			fixture.buildError = err
			return
		}
		p, _ := datagen.ProfileByKey("S-BR")
		tp := datagen.GenerateTables(p, 80, 0.3)
		fixture.leftPath = filepath.Join(dir, "left.csv")
		fixture.rightPath = filepath.Join(dir, "right.csv")
		fixture.truthPath = filepath.Join(dir, "truth.csv")
		if err := data.SaveTableFile(fixture.leftPath, &data.Table{Schema: tp.Schema, Rows: tp.Left}); err != nil {
			fixture.buildError = err
			return
		}
		if err := data.SaveTableFile(fixture.rightPath, &data.Table{Schema: tp.Schema, Rows: tp.Right}); err != nil {
			fixture.buildError = err
			return
		}
		fixture.buildError = data.SaveTruthFile(fixture.truthPath, tp.Truth)
	})
	if fixture.buildError != nil {
		t.Fatalf("building match fixture: %v", fixture.buildError)
	}
	return &fixture
}

// inFixtureDir runs fn with the working directory switched to the fixture
// directory so the transcript contains only relative, deterministic paths.
func inFixtureDir(t *testing.T, fx *matchFixture, fn func() error) string {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(fx.dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	return captureStdout(t, fn)
}

// checkGolden compares a normalized transcript against a golden file,
// honoring the package-level -update flag.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/wym -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("CLI output diverged from %s (re-run with -update if intentional)\n%s",
			golden, diffLines(string(want), got))
	}
}

// TestGoldenMatch locks the complete `wym match` transcript — table
// banners, job plan, match counts, blocking stats, truth scoring, and the
// output line — against a golden file. The byte-stable summary is itself
// part of the contract: a resumed job must reproduce it exactly.
func TestGoldenMatch(t *testing.T) {
	fx := matchTestFixture(t)
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "match_sbr.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := inFixtureDir(t, fx, func() error {
		outDir := t.TempDir()
		return runMatchCmd(context.Background(), "match", []string{
			"-left", "left.csv", "-right", "right.csv",
			"-model", "matcher.gob",
			"-out", filepath.Join(outDir, "matches.csv"),
			"-job", filepath.Join(outDir, "matches.csv.job"),
			"-chunk", "20", "-max-df", "0.2", "-truth", "truth.csv", "-v",
		})
	})
	var scored, reused int
	if m := unitsRE.FindStringSubmatch(out); m == nil {
		t.Fatalf("transcript missing the units line:\n%s", out)
	} else if scored, _ = strconv.Atoi(m[1]); scored == 0 {
		t.Fatalf("units line %q: no unit scored", m[0])
	} else if reused, _ = strconv.Atoi(m[2]); reused == 0 {
		t.Fatalf("units line %q: the job's session reused no unit score", m[0])
	}
	got := normalizeUnits(normalizeDurations(normalizeTempPaths(out)))
	for _, want := range []string{
		"left table left: 80 rows",
		"job: 4 chunks of 20 rows",
		"recall of blocking:",
		"pair quality: precision",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("transcript missing %q:\n%s", want, got)
		}
	}
	checkGolden(t, goldenPath, got)
}

// unitsRE matches the units line of `wym match -v`. How a job's units
// split between scored and reused depends on which chunks run at the
// same time, so the golden transcript holds neither count.
var unitsRE = regexp.MustCompile(`units: (\d+) scored, (\d+) reused`)

func normalizeUnits(s string) string {
	return unitsRE.ReplaceAllString(s, "units: <N> scored, <N> reused")
}

// TestGoldenDedup locks the `wym dedup` transcript.
func TestGoldenDedup(t *testing.T) {
	fx := matchTestFixture(t)
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "dedup_sbr.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := inFixtureDir(t, fx, func() error {
		outDir := t.TempDir()
		return runMatchCmd(context.Background(), "dedup", []string{
			"-in", "left.csv",
			"-model", "matcher.gob",
			"-out", filepath.Join(outDir, "dups.csv"),
			"-job", filepath.Join(outDir, "dups.csv.job"),
			"-chunk", "32", "-max-df", "0.3",
		})
	})
	got := normalizeDurations(normalizeTempPaths(out))
	if !strings.Contains(got, "matched: ") {
		t.Fatalf("transcript missing match summary:\n%s", got)
	}
	checkGolden(t, goldenPath, got)
}

// tempPathRE matches the per-run temp directories that carry the output
// and job paths in test transcripts.
var tempPathRE = regexp.MustCompile(`/[^ ]*/(matches|dups)\.csv`)

func normalizeTempPaths(s string) string {
	return tempPathRE.ReplaceAllString(s, "<TMP>/$1.csv")
}
