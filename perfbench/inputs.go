package main

import (
	"encoding/json"
	"path/filepath"

	"wym/internal/data"
	"wym/internal/datagen"
)

// profileKey is the dataset profile every workload draws from: the
// restaurant-matching S-FZ set, the one the README's table-matching
// walkthrough uses.
const profileKey = "S-FZ"

// driftRate is the share of the vocabulary drifted on serve-learn's
// right-hand sides: enough that feedback has something to correct.
const driftRate = 0.5

// Input streams: each generated set draws from its own derived seed, so
// the sets are disjoint and each depends only on (seed, stream).
const (
	streamTrain = iota + 1
	streamPool
	streamFeedback
	streamHeldOut
	streamTables
)

// sizes fixes how much work one run does.
type sizes struct {
	trainPairs int     // labeled pairs handed to `wym train` (it splits 60/20/20)
	setupReps  int     // set-ups per run; setup_s is their median
	pool       int     // distinct request pairs
	warmup     int     // requests sent before timing starts
	batch      int     // pairs per /predict/batch request
	checkN     int     // served answers compared with the in-process engine
	rate       float64 // serve-learn arrival rate, requests per second
	fbBatches  int     // serve-learn feedback batches per run
	fbLabels   int     // labels per feedback batch
	heldOut    int     // serve-learn pairs scored after the timed phase
	tableRows  int     // rows per match-table table
	chunk      int     // left rows per match-table chunk
	replay     int     // pairs replayed in-process by the traced run
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{trainPairs: 60, setupReps: 1, pool: 60, warmup: 10, batch: 8, checkN: 10,
			rate: 40, fbBatches: 2, fbLabels: 2, heldOut: 60, tableRows: 80, chunk: 40, replay: 20}
	}
	return sizes{trainPairs: 80, setupReps: 3, pool: 400, warmup: 200, batch: 32, checkN: 60,
		rate: 250, fbBatches: 24, fbLabels: 2, heldOut: 300, tableRows: 500, chunk: 125, replay: 200}
}

// profile is the S-FZ profile with its generator seed replaced.
func profile(seed int64) datagen.Profile {
	p, ok := datagen.ProfileByKey(profileKey)
	if !ok {
		panic("perfbench: unknown profile " + profileKey)
	}
	p.Seed = seed
	return p
}

// streamSeed derives the generator seed of one input stream.
func streamSeed(seed int64, stream int) int64 { return seed*1000 + int64(stream) }

// labeledPairs generates n labeled pairs of one stream.
func labeledPairs(seed int64, stream, n int) *data.Dataset {
	p := profile(streamSeed(seed, stream))
	return datagen.Generate(p, (float64(n)+0.5)/float64(p.Size))
}

// drifted returns d with every right-hand side drifted.
func drifted(d *data.Dataset, seed int64) *data.Dataset {
	out := &data.Dataset{Name: d.Name + "-drift", Schema: d.Schema, Pairs: make([]data.Pair, len(d.Pairs))}
	for i, p := range d.Pairs {
		p.Right = datagen.DriftEntity(p.Right, driftRate, seed)
		out.Pairs[i] = p
	}
	return out
}

// writeTrainCSV writes the training slice every workload trains on.
func writeTrainCSV(dir string, seed int64, n int) (string, error) {
	path := filepath.Join(dir, "train.csv")
	return path, data.SaveFile(path, labeledPairs(seed, streamTrain, n))
}

// tables generates the match-table inputs and writes them as CSV.
func writeTables(dir string, seed int64, rows int) (left, right, truth string, tp *datagen.TablePair, err error) {
	tp = datagen.GenerateTables(profile(streamSeed(seed, streamTables)), rows, 0.25)
	left, right, truth = filepath.Join(dir, "left.csv"), filepath.Join(dir, "right.csv"), filepath.Join(dir, "truth.csv")
	if err = data.SaveTableFile(left, &data.Table{Name: "left", Schema: tp.Schema, Rows: tp.Left}); err != nil {
		return
	}
	if err = data.SaveTableFile(right, &data.Table{Name: "right", Schema: tp.Schema, Rows: tp.Right}); err != nil {
		return
	}
	err = data.SaveTruthFile(truth, tp.Truth)
	return
}

// pairBody is the JSON body of /predict and /explain.
type pairBody struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
}

// labelBody is one label of a POST /admin/feedback body.
type labelBody struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
	Match bool     `json:"match"`
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and bools are encoded
	}
	return raw
}

func pairJSON(p data.Pair) []byte { return mustJSON(pairBody{Left: p.Left, Right: p.Right}) }

// batchJSON encodes pairs[from:from+n] (wrapping) as a /predict/batch body.
func batchJSON(pairs []data.Pair, from, n int) []byte {
	body := struct {
		Pairs []pairBody `json:"pairs"`
	}{Pairs: make([]pairBody, n)}
	for k := 0; k < n; k++ {
		p := pairs[(from+k)%len(pairs)]
		body.Pairs[k] = pairBody{Left: p.Left, Right: p.Right}
	}
	return mustJSON(body)
}

// feedbackJSON encodes labeled pairs as a POST /admin/feedback body.
func feedbackJSON(pairs []data.Pair) []byte {
	body := struct {
		Labels []labelBody `json:"labels"`
	}{Labels: make([]labelBody, len(pairs))}
	for i, p := range pairs {
		body.Labels[i] = labelBody{Left: p.Left, Right: p.Right, Match: p.Label == data.Match}
	}
	return mustJSON(body)
}
