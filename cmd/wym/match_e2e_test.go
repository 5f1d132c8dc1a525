package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/testproc"
)

// buildWymBinary compiles the CLI once for the subprocess tests.
func buildWymBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "wym")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building wym binary: %v\n%s", err, out)
	}
	return bin
}

// manifestChunkCount parses the job manifest and returns how many chunks
// it records (-1 when the manifest is absent or torn mid-read).
func manifestChunkCount(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		return -1
	}
	var m struct {
		Chunks []struct {
			ID int `json:"id"`
		} `json:"chunks"`
	}
	if json.Unmarshal(raw, &m) != nil {
		return -1
	}
	return len(m.Chunks)
}

// TestMatchKillResume is the crash-safety acceptance test: SIGKILL a
// `wym match` subprocess mid-job, resume it, and require the merged
// output to be byte-identical to an uninterrupted run. SIGKILL (not
// SIGTERM) is the point — the process gets no chance to clean up, so
// only the atomic manifest/segment discipline protects the job state.
func TestMatchKillResume(t *testing.T) {
	fx := matchTestFixture(t)
	workDir := t.TempDir()
	bin := buildWymBinary(t, workDir)

	// A bigger table pair than the golden fixture, so the throttled job
	// reliably outlives the kill window.
	p, _ := datagen.ProfileByKey("S-BR")
	tp := datagen.GenerateTables(p, 200, 0.3)
	leftPath := filepath.Join(workDir, "left.csv")
	rightPath := filepath.Join(workDir, "right.csv")
	if err := data.SaveTableFile(leftPath, &data.Table{Schema: tp.Schema, Rows: tp.Left}); err != nil {
		t.Fatal(err)
	}
	if err := data.SaveTableFile(rightPath, &data.Table{Schema: tp.Schema, Rows: tp.Right}); err != nil {
		t.Fatal(err)
	}

	jobArgs := func(out, job string, extra ...string) []string {
		args := []string{"match",
			"-left", leftPath, "-right", rightPath,
			"-model", fx.modelPath,
			"-out", out, "-job", job,
			"-chunk", "20", "-topk", "20",
		}
		return append(args, extra...)
	}

	// Reference: one uninterrupted run.
	refOut := filepath.Join(workDir, "ref.csv")
	if out, err := testproc.CombinedOutput(exec.Command(bin, jobArgs(refOut, refOut+".job")...)); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: throttle paces the chunks so the manifest poll can
	// catch the job mid-flight, then SIGKILL.
	out := filepath.Join(workDir, "matches.csv")
	job := filepath.Join(workDir, "matches.csv.job")
	cmd := exec.Command(bin, jobArgs(out, job, "-throttle", "400ms")...)
	testproc.Start(t, cmd)
	manifest := filepath.Join(job, "job.json")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if n := manifestChunkCount(manifest); n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never recorded 2 chunks")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if err == nil {
		t.Fatal("SIGKILLed process exited cleanly — kill landed after completion, widen the throttle")
	}
	done := manifestChunkCount(manifest)
	if done >= 10 {
		t.Fatalf("job finished all %d chunks before the kill", done)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("killed job left a merged output file")
	}

	// Resume (throttle dropped: pacing must not invalidate the manifest)
	// and require byte-identical output.
	res, err := testproc.CombinedOutput(exec.Command(bin, jobArgs(out, job, "-resume")...))
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, res)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMatchSigtermDrains verifies the graceful path: SIGTERM lets the
// in-flight chunk drain, prints the resumable notice, and exits 0.
func TestMatchSigtermDrains(t *testing.T) {
	fx := matchTestFixture(t)
	workDir := t.TempDir()
	bin := buildWymBinary(t, workDir)

	out := filepath.Join(workDir, "dups.csv")
	job := filepath.Join(workDir, "dups.csv.job")
	cmd := exec.Command(bin, "dedup",
		"-in", fx.leftPath, "-model", fx.modelPath,
		"-out", out, "-job", job,
		"-chunk", "10", "-max-df", "0.3", "-throttle", "500ms")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	testproc.Start(t, cmd)
	manifest := filepath.Join(job, "job.json")
	deadline := time.Now().Add(2 * time.Minute)
	for manifestChunkCount(manifest) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never recorded a chunk")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM should exit 0, got %v\n%s", err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("resumable with -resume")) {
		t.Fatalf("missing resumable notice:\n%s", buf.String())
	}
	// The drained run is resumable to completion.
	if res, err := testproc.CombinedOutput(exec.Command(bin, "dedup",
		"-in", fx.leftPath, "-model", fx.modelPath,
		"-out", out, "-job", job,
		"-chunk", "10", "-max-df", "0.3", "-resume")); err != nil {
		t.Fatalf("resume after SIGTERM: %v\n%s", err, res)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("resumed dedup wrote no output: %v", err)
	}
}
