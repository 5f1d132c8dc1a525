package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// repeatSetup runs one set-up per rep in a fresh directory and reports
// setup_s as the median rep. once returns a teardown for what the rep
// started; every rep but the last is torn down after it is timed. Traced
// runs set up once: their result line carries no setup_s.
func (r *run) repeatSetup(once func(dir string) (teardown func() error, err error)) error {
	reps := r.sz.setupReps
	if r.tr != nil {
		reps = 1
	}
	took := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		dir := r.path(fmt.Sprintf("rep%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		teardown, err := once(dir)
		r.steps++
		if err != nil {
			r.stepsFailed++
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		took = append(took, time.Since(start).Seconds())
		if i < reps-1 && teardown != nil {
			r.steps++
			if err := teardown(); err != nil {
				r.stepsFailed++
				r.note("set-up %d teardown: %v", i, err)
			}
		}
	}
	r.put("setup_s", "s", median(took))
	r.note("setup_s per rep: %v", took)
	return nil
}

// trainModel writes model.gob into dir from the training CSV through
// `wym train`.
func (r *run) trainModel(dir, trainCSV string) (string, error) {
	gob := filepath.Join(dir, "model.gob")
	_, err := runTool(r.ctx, dir, filepath.Join(dir, "train.log"), r.binary("wym"),
		"train", "-data", trainCSV, "-seed", "1", "-explain", "0", "-save", gob)
	return gob, err
}

// convertModel compiles the f32 serving arena next to the gob artifact
// through `wym model convert`.
func (r *run) convertModel(gob string) (string, error) {
	out := strings.TrimSuffix(gob, ".gob") + ".wyma"
	_, err := runTool(r.ctx, filepath.Dir(gob), filepath.Join(filepath.Dir(gob), "convert.log"),
		r.binary("wym"), "model", "convert", "-in", gob, "-out", out)
	return out, err
}
