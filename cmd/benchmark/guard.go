package main

// guard.go implements the -bench-guard mode: a performance regression
// gate. It re-times the hot pipeline paths, compares them against a
// committed baseline snapshot (BENCH_baseline.json), and exits non-zero
// when any benchmark's ns/op or allocs/op grew past the threshold. The
// guard reruns on the baseline's recorded dataset, scale, and seed so the
// two snapshots measure the same workload; absolute wall-clock numbers
// still depend on the machine, which is why the gate is a ratio, not a
// bound.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// regression is one over-threshold metric in a guard run.
type regression struct {
	Bench  string  // benchmark name, e.g. "ProcessAll"
	Metric string  // "ns/op" or "allocs/op"
	Base   float64 // baseline value
	Got    float64 // fresh value
}

// ratio reports the relative growth (0.25 = 25% slower/bigger).
func (r regression) ratio() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Got/r.Base - 1
}

func (r regression) String() string {
	return fmt.Sprintf("%s %s regressed %.1f%%: %.0f -> %.0f",
		r.Bench, r.Metric, 100*r.ratio(), r.Base, r.Got)
}

// compareSnapshots diffs a fresh run against the baseline: any benchmark
// whose ns/op or allocs/op grew by more than threshold (fractional, 0.25
// = 25%) is a regression, as is a baseline benchmark missing from the
// fresh run (a silently dropped bench must not pass the gate). Results
// are sorted by benchmark name so output and tests are deterministic.
// Benchmarks only present in the fresh run are ignored — adding coverage
// is not a regression.
func compareSnapshots(base, got map[string]benchResult, threshold float64) []regression {
	var regs []regression
	for name, b := range base {
		g, ok := got[name]
		if !ok {
			regs = append(regs, regression{Bench: name, Metric: "missing", Base: b.NsPerOp})
			continue
		}
		if exceeds(b.NsPerOp, g.NsPerOp, threshold) {
			regs = append(regs, regression{Bench: name, Metric: "ns/op", Base: b.NsPerOp, Got: g.NsPerOp})
		}
		if exceeds(float64(b.AllocsPerOp), float64(g.AllocsPerOp), threshold) {
			regs = append(regs, regression{Bench: name, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), Got: float64(g.AllocsPerOp)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Bench != regs[j].Bench {
			return regs[i].Bench < regs[j].Bench
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// exceeds reports whether got grew past base by more than threshold. A
// zero baseline only regresses if the fresh value is non-zero.
func exceeds(base, got, threshold float64) bool {
	if base == 0 {
		return got > 0 && threshold < 1
	}
	return got > base*(1+threshold)
}

// crossGate is one intra-snapshot performance contract: the fast series
// must beat the slow series by at least the given speedup factor. These
// gates run on the *fresh* snapshot, so they hold on every machine —
// unlike the baseline comparison, a ratio between two series timed in
// the same run does not depend on absolute hardware speed.
type crossGate struct {
	fast, slow string
	speedup    float64
}

// crossGates encodes the arena format's performance contract (DESIGN
// §10): serving predicts through the zero-copy arena at least 2x faster
// than through the gob-decoded stack, and cold-starts at least 10x
// faster than a gob decode. The audit gate (DESIGN §14) bounds the full
// audited serve path — process, predict, explain, compact, append — to
// 1.25x the bare predict (speedup 0.8 means the "fast" series may be up
// to 1/0.8 of the slow one), so decision logging can stay on in
// production without renegotiating the latency budget.
var crossGates = []crossGate{
	{fast: "ArenaPredict", slow: "Predict", speedup: 2},
	{fast: "ModelLoadArena", slow: "ModelLoadGob", speedup: 10},
	{fast: "PredictAudited", slow: "Predict", speedup: 0.8},
}

// checkCrossGates verifies every cross-series gate against one
// snapshot, returning a violation message per failed gate. A gate whose
// series are absent (an old baseline) is skipped — the missing-bench
// check in compareSnapshots already covers dropped series.
func checkCrossGates(benchmarks map[string]benchResult, gates []crossGate) []string {
	var violations []string
	for _, g := range gates {
		fast, okF := benchmarks[g.fast]
		slow, okS := benchmarks[g.slow]
		if !okF || !okS {
			continue
		}
		if fast.NsPerOp*g.speedup > slow.NsPerOp {
			violations = append(violations, g.violation(fast.NsPerOp, slow.NsPerOp))
		}
	}
	return violations
}

// violation words a failed gate by its kind: a speedup of at least 1 as
// "must be >=2x faster than", a fractional one as the overhead bound it
// is, "must be <=1.25x".
func (g crossGate) violation(fast, slow float64) string {
	if g.speedup < 1 {
		return fmt.Sprintf("%s must be <=%gx %s: %.0f ns/op vs %.0f ns/op (%.2fx)",
			g.fast, 1/g.speedup, g.slow, fast, slow, fast/slow)
	}
	return fmt.Sprintf("%s must be >=%gx faster than %s: %.0f ns/op vs %.0f ns/op (%.1fx)",
		g.fast, g.speedup, g.slow, fast, slow, slow/fast)
}

// runBenchGuard loads the baseline, re-times the same workload, and
// reports. A regression returns an error (the caller exits non-zero).
func runBenchGuard(baselinePath string, threshold float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base perfSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("baseline %s has no benchmarks", baselinePath)
	}
	fmt.Printf("bench-guard: baseline %s (%s, scale %g, seed %d), threshold %.0f%%\n",
		baselinePath, base.Dataset, base.Scale, base.Seed, 100*threshold)
	fresh, _, err := collectSnapshot(base.Dataset, base.Scale, base.Seed)
	if err != nil {
		return err
	}
	for _, name := range sortedBenchNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		if g, ok := fresh.Benchmarks[name]; ok {
			fmt.Printf("  %-14s ns/op %12.0f -> %12.0f (%+.1f%%)   allocs/op %7d -> %7d (%+.1f%%)\n",
				name, b.NsPerOp, g.NsPerOp, 100*delta(b.NsPerOp, g.NsPerOp),
				b.AllocsPerOp, g.AllocsPerOp,
				100*delta(float64(b.AllocsPerOp), float64(g.AllocsPerOp)))
		}
	}
	regs := compareSnapshots(base.Benchmarks, fresh.Benchmarks, threshold)
	violations := checkCrossGates(fresh.Benchmarks, crossGates)
	if len(regs) == 0 && len(violations) == 0 {
		fmt.Println("bench-guard: ok, no regressions, cross-series gates hold")
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "bench-guard:", r)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "bench-guard: gate:", v)
	}
	if len(regs) > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed more than %.0f%% (plus %d gate violations)",
			len(regs), 100*threshold, len(violations))
	}
	return fmt.Errorf("%d cross-series gate(s) violated", len(violations))
}

func delta(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return got/base - 1
}

func sortedBenchNames(m map[string]benchResult) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
