package experiments

import (
	"fmt"
	"slices"
	"time"

	"wym/internal/baselines"
	"wym/internal/data"
	"wym/internal/eval"
)

// TimingRow is one dataset's §5.3 measurement: training time, prediction
// and explanation throughput (records/second), the explanation share of
// the pipeline, and DITTO's training/prediction throughput for reference.
type TimingRow struct {
	Key string

	TrainSeconds     float64
	TrainThroughput  float64 // records trained / second
	PredictPerSecond float64
	ExplainPerSecond float64
	ExplainShare     float64 // fraction of per-record pipeline spent explaining

	DITTOTrainSeconds  float64
	DITTOPredictPerSec float64
}

// Section53 measures training and explanation throughput over the
// configured datasets.
func Section53(cfg RunConfig) ([]TimingRow, error) {
	var rows []TimingRow
	for _, key := range cfg.keys() {
		sp, err := makeSplits(key, cfg)
		if err != nil {
			return nil, err
		}
		ts, err := trainWYM(key, cfg)
		if err != nil {
			return nil, err
		}
		row := TimingRow{Key: key}
		row.TrainSeconds = ts.sys.TrainingTiming().Total().Seconds()
		if row.TrainSeconds > 0 {
			row.TrainThroughput = float64(sp.train.Size()+sp.valid.Size()) / row.TrainSeconds
		}

		ditto := baselines.NewDITTO(cfg.Seed)
		start := time.Now()
		if err := ditto.Train(sp.train, sp.valid); err != nil {
			return nil, err
		}
		row.DITTOTrainSeconds = time.Since(start).Seconds()

		sample := sampleTest(sp.test, cfg.sampleRecords(), cfg.Seed)
		// One untimed pass first: the embedding cache memoizes a token on
		// its first lookup, so whichever pass ran first would pay alone to
		// embed the sample's unseen tokens.
		for _, p := range sample.Pairs {
			ts.sys.Predict(p)
		}
		rates := throughputs(sample.Pairs,
			func(p data.Pair) { ts.sys.Predict(p) },
			func(p data.Pair) { ts.sys.Explain(p) },
			func(p data.Pair) { ditto.Predict(p) })
		row.PredictPerSecond, row.ExplainPerSecond, row.DITTOPredictPerSec = rates[0], rates[1], rates[2]
		if row.ExplainPerSecond > 0 && row.PredictPerSecond > 0 {
			// Explain runs the predict pipeline plus attribution; the extra
			// attribution time over the shared pipeline is the explanation
			// share of the full explain call.
			row.ExplainShare = max(0, 1-row.ExplainPerSecond/row.PredictPerSecond)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// minTimed is how long each throughput is measured at least: one pass
// over a 60-record sample takes a few milliseconds, too short to time
// reliably on a shared host.
const minTimed = 500 * time.Millisecond

// throughputs times every fn over pairs in rounds. Each round runs one
// whole pass of each fn, rotating which one goes first, until every fn
// has run for minTimed of its own time. It returns each fn's records per
// second of its own summed time; interleaving the passes spreads host
// drift over every column alike instead of landing it on one.
func throughputs(pairs []data.Pair, fns ...func(data.Pair)) []float64 {
	rates := make([]float64, len(fns))
	if len(pairs) == 0 {
		return rates
	}
	spent := make([]time.Duration, len(fns))
	rounds := 0
	for ; slices.Min(spent) < minTimed; rounds++ {
		for k := range fns {
			j := (rounds + k) % len(fns)
			start := time.Now()
			for _, p := range pairs {
				fns[j](p)
			}
			spent[j] += time.Since(start)
		}
	}
	for j := range fns {
		rates[j] = float64(rounds*len(pairs)) / spent[j].Seconds()
	}
	return rates
}

// FormatSection53 renders the throughput table.
func FormatSection53(rows []TimingRow) string {
	var t tableBuilder
	t.line("Section 5.3: Time performance (records/second unless noted).")
	t.row("Dataset", "train s", "train r/s", "pred r/s", "expl r/s", "expl %", "DITTO tr s", "DITTO r/s")
	var explPerHour float64
	for _, r := range rows {
		t.row(r.Key,
			fmt.Sprintf("%.1f", r.TrainSeconds),
			fmt.Sprintf("%.1f", r.TrainThroughput),
			fmt.Sprintf("%.1f", r.PredictPerSecond),
			fmt.Sprintf("%.1f", r.ExplainPerSecond),
			fmt.Sprintf("%.0f%%", 100*r.ExplainShare),
			fmt.Sprintf("%.1f", r.DITTOTrainSeconds),
			fmt.Sprintf("%.1f", r.DITTOPredictPerSec))
		explPerHour += r.ExplainPerSecond * 3600
	}
	if len(rows) > 0 {
		t.line(fmt.Sprintf("Average explanations/hour: %.0f", explPerHour/float64(len(rows))))
	}
	return t.String()
}

// Section54 runs the simulated user study (§5.4).
func Section54(cfg RunConfig) eval.StudyResult {
	study := eval.DefaultStudyConfig()
	return eval.SimulateUserStudy(study)
}

// FormatSection54 renders the study summary.
func FormatSection54(res eval.StudyResult) string {
	var t tableBuilder
	t.line("Section 5.4: Simulated user study (15 raters, 9 statements, 3 pair types).")
	t.line(fmt.Sprintf("Prefer decision-unit explanations: %.0f%% of answers", 100*res.PreferUnitsShare))
	t.line(fmt.Sprintf("Fleiss' kappa: %.3f (paper: 0.787)", res.Kappa))
	return t.String()
}
