package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wym"
	"wym/internal/blocking"
	"wym/internal/datagen"
)

// labelOptions carries the parsed command line of `wym label`.
type labelOptions struct {
	model      string
	candidates string // labeled pair CSV (label, left_*, right_*)
	left       string // table pair: blocking generates the candidates
	right      string
	datasetID  string // synthetic benchmark pool (test split)
	scale      float64
	drift      float64 // simulated post-train vocabulary drift on the right side
	driftSeed  int64
	seed       int64
	k          int
	topK       int // blocking top-k per left row
	auto       bool
	journalDir string
	save       string
}

// runLabelCmd implements `wym label`: an active-labeling session that
// presents the candidate pairs the model is least sure about (lowest
// margin to the decision threshold) first, so each adjudication moves
// the decision boundary as much as possible. Adjudicated labels can be
// appended to a feedback journal (-journal, the same format wym-server
// replays) and folded into the model on the spot (-save).
//
//	wym label -model m.gob -candidates pairs.csv -k 10 -journal fb/
//	wym label -model m.gob -left a.csv -right b.csv -save m2.gob
//	wym label -model m.gob -dataset S-BR -drift 0.6 -auto -save m2.gob
//
// Interactive mode prompts y/n per pair; -auto adjudicates from the
// ground truth in the candidate source (labeled CSV or synthetic
// dataset) — the batch mode scripts and the golden transcript use.
func runLabelCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("wym label", flag.ExitOnError)
	var o labelOptions
	fs.StringVar(&o.model, "model", "", "trained model file (wym train -save); must be gob to fold feedback in")
	fs.StringVar(&o.candidates, "candidates", "", "candidate pair CSV (label, left_*, right_* — the training layout)")
	fs.StringVar(&o.left, "left", "", "left entity table CSV (candidates come from blocking)")
	fs.StringVar(&o.right, "right", "", "right entity table CSV")
	fs.StringVar(&o.datasetID, "dataset", "", "synthetic benchmark pool (e.g. S-BR): labels the test split")
	fs.Float64Var(&o.scale, "scale", 1.0, "synthetic dataset scale")
	fs.Float64Var(&o.drift, "drift", 0, "drift rate applied to the right side of -dataset pairs (simulates post-train vocabulary shift)")
	fs.Int64Var(&o.driftSeed, "drift-seed", 23, "drift seed")
	fs.Int64Var(&o.seed, "seed", 1, "dataset split seed")
	fs.IntVar(&o.k, "k", 10, "labeling budget: how many lowest-margin pairs to present")
	fs.IntVar(&o.topK, "topk", 50, "blocking: candidates kept per left row (table mode)")
	fs.BoolVar(&o.auto, "auto", false, "adjudicate from ground truth instead of prompting (requires a labeled source)")
	fs.StringVar(&o.journalDir, "journal", "", "append adjudicated labels to the feedback journal in this directory")
	fs.StringVar(&o.save, "save", "", "fold the labels into the model and save the updated system here")
	fs.Parse(args)
	if o.model == "" {
		return fmt.Errorf("pass -model <file>")
	}
	return runLabel(ctx, o, os.Stdin)
}

// labelPool returns the candidate pairs and whether they carry ground
// truth (required by -auto).
func labelPool(o labelOptions) ([]wym.Pair, bool, error) {
	switch {
	case o.candidates != "":
		d, err := wym.LoadDataset(o.candidates)
		if err != nil {
			return nil, false, err
		}
		return d.Pairs, true, nil
	case o.left != "" && o.right != "":
		pairs, err := blockedPairs(o)
		return pairs, false, err
	case o.datasetID != "":
		d, ok := wym.DatasetByKey(o.datasetID, o.scale)
		if !ok {
			return nil, false, fmt.Errorf("unknown dataset %q (try S-DG, S-DA, S-AG, ...)", o.datasetID)
		}
		// The test split: pairs disjoint from what a model trained on the
		// same dataset and seed ever saw.
		_, _, test := d.MustSplit(0.6, 0.2, o.seed)
		pairs := test.Pairs
		if o.drift > 0 {
			drifted := make([]wym.Pair, len(pairs))
			for i, p := range pairs {
				drifted[i] = p
				drifted[i].Right = datagen.DriftEntity(p.Right, o.drift, o.driftSeed)
			}
			pairs = drifted
		}
		return pairs, true, nil
	default:
		return nil, false, fmt.Errorf("pass -candidates <csv>, -left/-right <csv>, or -dataset <key>")
	}
}

// blockedPairs generates unlabeled candidates from a table pair via the
// streaming blocker — the same candidate generation `wym match` scores.
func blockedPairs(o labelOptions) ([]wym.Pair, error) {
	left, err := wym.LoadTable(o.left)
	if err != nil {
		return nil, err
	}
	right, err := wym.LoadTable(o.right)
	if err != nil {
		return nil, err
	}
	s, err := blocking.NewStreamer(left.Rows, right.Rows, blocking.StreamConfig{
		Config: blocking.Config{MaxDF: 0.1, MinShared: 1},
		TopK:   o.topK,
	})
	if err != nil {
		return nil, err
	}
	cands, err := s.Chunk(0, len(left.Rows))
	if err != nil {
		return nil, err
	}
	pairs := make([]wym.Pair, len(cands))
	for i, c := range cands {
		pairs[i] = wym.Pair{Left: left.Rows[c.Left], Right: right.Rows[c.Right]}
	}
	return pairs, nil
}

func runLabel(ctx context.Context, o labelOptions, in io.Reader) error {
	sys, err := wym.LoadSystem(o.model)
	if err != nil {
		return err
	}
	pool, hasTruth, err := labelPool(o)
	if err != nil {
		return err
	}
	if len(pool) == 0 {
		return fmt.Errorf("no candidate pairs to label")
	}
	if o.auto && !hasTruth {
		return fmt.Errorf("-auto needs a labeled source (-candidates or -dataset); table mode is interactive only")
	}
	if o.save != "" && !sys.SupportsFeedback() {
		return fmt.Errorf("model %s (%s) cannot fold feedback; pass the gob artifact trained with SBERT/BERT fine-tuning", o.model, sys.Format())
	}

	fmt.Printf("model %s (classifier %s, threshold %.4f)\n", o.model, sys.ModelName(), sys.DecisionThreshold())
	scores := make([]float64, len(pool))
	for i, p := range pool {
		_, scores[i] = sys.Predict(p)
	}
	sel := wym.FeedbackSelector{Theta: sys.DecisionThreshold()}
	ranked := sel.TopK(scores, o.k)
	fmt.Printf("pool: %d candidates, presenting the %d lowest-margin\n", len(pool), len(ranked))

	var labels []wym.FeedbackLabel
	var skipped int
	sc := bufio.NewScanner(in)
adjudicate:
	for i, r := range ranked {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := pool[r.Index]
		fmt.Printf("\n[%d/%d] p=%.4f margin=%.4f\n  left : %v\n  right: %v\n",
			i+1, len(ranked), r.Score, r.Margin, p.Left, p.Right)
		var match bool
		if o.auto {
			match = p.Label == wym.Match
			verdict := "non-match"
			if match {
				verdict = "match"
			}
			fmt.Printf("  auto: %s (ground truth)\n", verdict)
		} else {
			switch answer(sc) {
			case "y":
				match = true
			case "n":
				match = false
			case "q":
				break adjudicate
			default:
				skipped++
				continue
			}
		}
		labels = append(labels, wym.FeedbackLabel{Left: p.Left, Right: p.Right, Match: match})
	}

	pos := 0
	for _, lb := range labels {
		if lb.Match {
			pos++
		}
	}
	fmt.Printf("\nlabeled %d pairs (%d match, %d non-match, %d skipped)\n",
		len(labels), pos, len(labels)-pos, skipped)
	if len(labels) == 0 {
		return nil
	}

	if o.journalDir != "" {
		j, existing, err := wym.OpenFeedbackJournal(o.journalDir)
		if err != nil {
			return err
		}
		defer j.Close()
		if err := j.Append(labels); err != nil {
			return err
		}
		fmt.Printf("journaled %d labels to %s (%d total)\n",
			len(labels), o.journalDir, len(existing)+len(labels))
	}
	if o.save != "" {
		upd, err := sys.ApplyFeedback(ctx, labels)
		if err != nil {
			return err
		}
		fmt.Printf("feedback folded: %d labels, fingerprint %s, threshold %.4f\n",
			upd.FeedbackCount(), upd.FeedbackFingerprint(), upd.DecisionThreshold())
		if err := upd.SaveFile(o.save); err != nil {
			return err
		}
		fmt.Printf("saved updated model to %s\n", o.save)
	}
	return nil
}

// answer reads one adjudication: y(es) / n(o) / s(kip) / q(uit). EOF
// quits the session (remaining candidates are skipped).
func answer(sc *bufio.Scanner) string {
	fmt.Print("  match? [y/n/s/q] ")
	if !sc.Scan() {
		return "q"
	}
	switch strings.ToLower(strings.TrimSpace(sc.Text())) {
	case "y", "yes":
		return "y"
	case "n", "no":
		return "n"
	case "q", "quit":
		return "q"
	default:
		return "s"
	}
}
