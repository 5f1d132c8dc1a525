package main

import (
	"reflect"
	"strings"
	"testing"
)

func bench(ns float64, allocs int64) benchResult {
	return benchResult{NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompareSnapshotsClean(t *testing.T) {
	base := map[string]benchResult{
		"ProcessAll": bench(1000, 100),
		"Predict":    bench(500, 50),
	}
	// Within threshold: 20% slower and fewer allocs.
	got := map[string]benchResult{
		"ProcessAll": bench(1200, 90),
		"Predict":    bench(400, 50),
	}
	if regs := compareSnapshots(base, got, 0.25); len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
}

func TestCompareSnapshotsRegressions(t *testing.T) {
	base := map[string]benchResult{
		"ProcessAll": bench(1000, 100),
		"Predict":    bench(500, 50),
		"Explain":    bench(800, 80),
	}
	got := map[string]benchResult{
		"ProcessAll": bench(1300, 100), // ns/op +30%
		"Predict":    bench(500, 70),   // allocs/op +40%
		"Explain":    bench(790, 80),   // fine
	}
	regs := compareSnapshots(base, got, 0.25)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}
	// Sorted by benchmark name: Predict < ProcessAll.
	if regs[0].Bench != "Predict" || regs[0].Metric != "allocs/op" {
		t.Fatalf("regs[0] = %+v, want Predict allocs/op", regs[0])
	}
	if regs[1].Bench != "ProcessAll" || regs[1].Metric != "ns/op" {
		t.Fatalf("regs[1] = %+v, want ProcessAll ns/op", regs[1])
	}
	if r := regs[1].ratio(); r < 0.29 || r > 0.31 {
		t.Fatalf("ProcessAll ratio = %v, want ~0.30", r)
	}
}

func TestCompareSnapshotsBoundary(t *testing.T) {
	base := map[string]benchResult{"B": bench(1000, 100)}
	// Exactly at threshold passes; just past it fails.
	at := map[string]benchResult{"B": bench(1250, 125)}
	if regs := compareSnapshots(base, at, 0.25); len(regs) != 0 {
		t.Fatalf("exactly-at-threshold flagged: %v", regs)
	}
	past := map[string]benchResult{"B": bench(1251, 100)}
	if regs := compareSnapshots(base, past, 0.25); len(regs) != 1 {
		t.Fatalf("past-threshold regressions = %v, want 1", regs)
	}
}

func TestCompareSnapshotsMissingBench(t *testing.T) {
	base := map[string]benchResult{"Gone": bench(1000, 100)}
	regs := compareSnapshots(base, map[string]benchResult{}, 0.25)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("regressions = %v, want one missing-bench entry", regs)
	}
}

func TestCompareSnapshotsNewBenchIgnored(t *testing.T) {
	base := map[string]benchResult{"Old": bench(1000, 100)}
	got := map[string]benchResult{
		"Old": bench(1000, 100),
		"New": bench(1, 1),
	}
	if regs := compareSnapshots(base, got, 0.25); len(regs) != 0 {
		t.Fatalf("new benchmark flagged: %v", regs)
	}
}

func TestCompareSnapshotsZeroBaseline(t *testing.T) {
	base := map[string]benchResult{"Z": bench(0, 0)}
	// Zero stays zero: fine.
	if regs := compareSnapshots(base, map[string]benchResult{"Z": bench(0, 0)}, 0.25); len(regs) != 0 {
		t.Fatalf("zero-to-zero flagged: %v", regs)
	}
	// Zero grows: a regression no finite ratio can excuse.
	regs := compareSnapshots(base, map[string]benchResult{"Z": bench(10, 0)}, 0.25)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("zero-to-nonzero regressions = %v, want one ns/op entry", regs)
	}
}

func TestCheckCrossGates(t *testing.T) {
	gates := []crossGate{
		{fast: "ArenaPredict", slow: "Predict", speedup: 2},
		{fast: "ModelLoadArena", slow: "ModelLoadGob", speedup: 10},
	}
	// Gates hold: arena predict 3x faster, arena load 20x faster.
	ok := map[string]benchResult{
		"Predict":        bench(900_000, 100),
		"ArenaPredict":   bench(300_000, 100),
		"ModelLoadGob":   bench(4_000_000, 100),
		"ModelLoadArena": bench(200_000, 100),
	}
	if v := checkCrossGates(ok, gates); len(v) != 0 {
		t.Fatalf("gates violated on a passing snapshot: %v", v)
	}
	// Arena predict only 1.5x faster: the 2x gate must fire.
	slow := map[string]benchResult{
		"Predict":        bench(900_000, 100),
		"ArenaPredict":   bench(600_000, 100),
		"ModelLoadGob":   bench(4_000_000, 100),
		"ModelLoadArena": bench(200_000, 100),
	}
	v := checkCrossGates(slow, gates)
	if len(v) != 1 || !strings.Contains(v[0], "ArenaPredict") {
		t.Fatalf("violations = %v, want one ArenaPredict entry", v)
	}
	// Both gates violated.
	if v := checkCrossGates(map[string]benchResult{
		"Predict":        bench(900_000, 100),
		"ArenaPredict":   bench(899_000, 100),
		"ModelLoadGob":   bench(4_000_000, 100),
		"ModelLoadArena": bench(3_999_000, 100),
	}, gates); len(v) != 2 {
		t.Fatalf("violations = %v, want two", v)
	}
	// Missing series are skipped (old baselines), not violated.
	if v := checkCrossGates(map[string]benchResult{"Predict": bench(1, 1)}, gates); len(v) != 0 {
		t.Fatalf("missing series flagged: %v", v)
	}
}

// TestCheckCrossGatesFractionalSpeedup: a sub-1 speedup bounds an
// overhead series — the audit gate allows PredictAudited up to 1.25x
// the bare Predict and fires beyond that.
func TestCheckCrossGatesFractionalSpeedup(t *testing.T) {
	gates := []crossGate{{fast: "PredictAudited", slow: "Predict", speedup: 0.8}}
	within := map[string]benchResult{
		"Predict":        bench(1_000_000, 100),
		"PredictAudited": bench(1_200_000, 120),
	}
	if v := checkCrossGates(within, gates); len(v) != 0 {
		t.Fatalf("1.2x overhead flagged under a 1.25x budget: %v", v)
	}
	over := map[string]benchResult{
		"Predict":        bench(1_000_000, 100),
		"PredictAudited": bench(1_300_000, 120),
	}
	if v := checkCrossGates(over, gates); len(v) != 1 || !strings.Contains(v[0], "PredictAudited") {
		t.Fatalf("violations = %v, want one PredictAudited entry", v)
	}
	// Both message forms: a fractional factor reads as the overhead bound
	// it sets, any other as a speedup, neither rounded to a whole number.
	over["ArenaPredict"] = bench(800_000, 100)
	gates = append(gates,
		crossGate{fast: "ArenaPredict", slow: "Predict", speedup: 2.5})
	want := []string{
		"PredictAudited must be <=1.25x Predict: 1300000 ns/op vs 1000000 ns/op (1.30x)",
		"ArenaPredict must be >=2.5x faster than Predict: 800000 ns/op vs 1000000 ns/op (1.2x)",
	}
	if v := checkCrossGates(over, gates); !reflect.DeepEqual(v, want) {
		t.Fatalf("violations = %q, want %q", v, want)
	}
}
