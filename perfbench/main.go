// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real binaries (wym train, wym model convert,
// wym-server, wym match) on loopback, checks that their outputs are
// correct, and prints every metric by name and unit. The last line of
// standard output is the JSON result.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run also replays the workload's inputs in-process,
// records a span around each public entry point of the internal modules,
// and reports per-layer metrics instead of end-to-end ones. See README.md
// in this directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// validName is the form every metric name takes.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd are the metrics an untraced run reports on every workload in
// its result line; BENCHMARK.json lists the same names (pinned by a
// test). The rest are printed in the report only: a route exists on some
// workloads, f1 is a property of the seed's data as much as of the code,
// and pairs_per_s swings too far with neighbour load to take a bound (see
// README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the layer metrics a traced run reports on every workload.
// The arena and audit.append figures are probes of the trained artifact:
// on the path only on serve-read (arena) and serve-learn (audit), off it
// elsewhere. Layers only some workloads reach and that have no such probe
// (serve, audit records, feedback, blocking, matchjob, data, loadgen) are
// printed in the report and stored in the trace file, not in the result
// line.
var perLayer = []metricSpec{
	{"core.train_embeddings_s", "s"},
	{"core.train_units_s", "s"},
	{"core.train_scorer_s", "s"},
	{"core.train_features_s", "s"},
	{"core.train_model_select_s", "s"},
	{"core.save_s", "s"},
	{"core.load_s", "s"},
	{"arena.convert_s", "s"},
	{"arena.load_s", "s"},
	{"tokenize.us_per_pair", "us"},
	{"tokenize.tokens_per_pair", "count"},
	{"embed.us_per_pair", "us"},
	{"units.discover_us_per_pair", "us"},
	{"units.units_per_pair", "count"},
	{"relevance.score_us_per_pair", "us"},
	{"relevance.us_per_unit", "us"},
	{"classify.match_us_per_pair", "us"},
	{"explain.us_per_pair", "us"},
	{"pipeline.generate_us_per_pair", "us"},
	{"pipeline.batch_us_per_pair", "us"},
	{"pipeline.batch_speedup", "ratio"},
	{"audit.append_us", "us"},
	{"audit.bytes_per_record", "bytes"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"serve-read":  serveRead,
	"serve-learn": serveLearn,
	"match-table": matchTable,
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	root     string // source tree the binaries were built from
	bin      string // directory holding wym and wym-server
}

// check is one correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// run is the state of one workload run.
type run struct {
	cfg   config
	sz    sizes
	ctx   context.Context
	dir   string  // scratch directory, removed when the run ends
	tr    *tracer // nil when untraced
	dur   time.Duration
	units map[string]string // unit of every reported metric
	vals  map[string]float64
	notes []string
	chks  []check
	tally tally
	// steps counts non-HTTP operations (set-up steps, jobs) and how many
	// failed; HTTP requests are counted in tally.
	steps, stepsFailed int
}

func (r *run) put(name, unit string, v float64) {
	r.vals[name] = v
	r.units[name] = unit
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.chks = append(r.chks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// putLatency stores a timing's median and tail under base_p50_ms and
// base_<tailName>_ms, and notes its sample counts.
func (r *run) putLatency(base, tailName string, l latency) {
	r.put(base+"_p50_ms", "ms", l.P50)
	r.put(base+"_"+tailName+"_ms", "ms", l.Tail)
	r.note("%s latency ms: %s", base, l)
}

// path names a file in the run's scratch directory.
func (r *run) path(elem ...string) string { return filepath.Join(append([]string{r.dir}, elem...)...) }

func (r *run) binary(name string) string { return filepath.Join(r.cfg.bin, name) }

// result is the JSON line the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-read, serve-learn, match-table, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs: every workload end to end in seconds")
	flag.StringVar(&cfg.root, "root", ".", "source tree the binaries were built from")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding wym and wym-server")
	flag.Parse()
	cfg.trace = traceFlag == 1

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"serve-read", "serve-learn", "match-table"}
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := execute(c, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
	}
}

// execute runs one workload, prints its report to w and returns the
// result line.
func execute(cfg config, w io.Writer) (*result, error) {
	runFn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-read, serve-learn, match-table or all)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	cfg.root = root
	if cfg.bin, err = filepath.Abs(cfg.bin); err != nil {
		return nil, err
	}
	for _, b := range []string{"wym", "wym-server"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-s%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &run{
		cfg: cfg, sz: sizesFor(cfg.smoke), ctx: ctx, dir: dir,
		dur:   time.Duration(cfg.seconds) * time.Second,
		units: map[string]string{}, vals: map[string]float64{}, tally: tally{},
	}
	if cfg.smoke {
		r.dur = time.Second
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	fmt.Fprintf(w, "perfbench %s seed %d seconds %d trace %v smoke %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d (env %q), %s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("GOMAXPROCS"), runtime.Version(), commit(root))
	if err := runFn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.tr != nil {
		out := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-s%d.json", cfg.workload, cfg.seed))
		if err := r.tr.write(out); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(r.tr.spans), out)
	}
	return r.finish(w)
}

// finish prints the report and assembles the result line, failing when a
// metric the mode must report is missing.
func (r *run) finish(w io.Writer) (*result, error) {
	var buf bytes.Buffer
	for _, n := range r.notes {
		fmt.Fprintln(&buf, n)
	}
	for _, l := range r.tally.lines() {
		fmt.Fprintln(&buf, l)
	}
	attempted, failed := r.tally.totals()
	attempted += r.steps + len(r.chks)
	failed += r.stepsFailed
	for _, c := range r.chks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(&buf, "check %s %s: %s\n", verdict, c.name, c.detail)
	}
	r.put("failed_frac", "ratio", float64(failed)/float64(attempted))
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !validName.MatchString(n) || math.IsNaN(r.vals[n]) || math.IsInf(r.vals[n], 0) {
			return nil, fmt.Errorf("metric %q = %v: invalid name or value", n, r.vals[n])
		}
		fmt.Fprintf(&buf, "metric %-32s %14.6g %s\n", n, r.vals[n], r.units[n])
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return nil, err
	}

	specs := endToEnd
	if r.cfg.trace {
		specs = perLayer
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var missing []string
	for _, s := range specs {
		v, ok := r.vals[s.name]
		if !ok {
			missing = append(missing, s.name)
			continue
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s did not report %s", r.cfg.workload, strings.Join(missing, ", "))
	}
	return res, nil
}

// commit names the checked-out commit when the tree is a git work tree,
// reading .git directly; "unknown" otherwise.
func commit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs")) // absent in fresh clones is fine
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
