package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wym/internal/arena"
	"wym/internal/embed"
	"wym/internal/relevance"
)

// arenaTolerances mirrors testdata/arena_tolerances.json: the committed
// equivalence budget between the gob-f64 system and its compiled arenas.
type arenaTolerances struct {
	F32  arenaBudget `json:"f32"`
	Int8 arenaBudget `json:"int8"`
}

type arenaBudget struct {
	ProbaAbs      float64 `json:"proba_abs"`
	DecisionFlips int     `json:"decision_flips"`
}

func loadTolerances(t *testing.T) arenaTolerances {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "arena_tolerances.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tol arenaTolerances
	if err := json.Unmarshal(raw, &tol); err != nil {
		t.Fatalf("arena_tolerances.json: %v", err)
	}
	if tol.F32.ProbaAbs <= 0 || tol.Int8.ProbaAbs <= 0 {
		t.Fatal("arena_tolerances.json has zero budgets")
	}
	return tol
}

// saveArenas writes the system in both arena precisions and returns the
// paths.
func saveArenas(t *testing.T, sys *System) (f32Path, int8Path string) {
	t.Helper()
	dir := t.TempDir()
	f32Path = filepath.Join(dir, "model.f32.wyma")
	int8Path = filepath.Join(dir, "model.int8.wyma")
	if err := sys.SaveArenaFile(f32Path, ArenaOptions{}); err != nil {
		t.Fatalf("SaveArenaFile(f32): %v", err)
	}
	if err := sys.SaveArenaFile(int8Path, ArenaOptions{Int8: true}); err != nil {
		t.Fatalf("SaveArenaFile(int8): %v", err)
	}
	return f32Path, int8Path
}

// TestArenaPredictionEquivalence is the golden equivalence suite: on
// three seed datasets, the float32 and int8 arenas must reproduce the
// gob system's predictions within the committed budget — and never flip
// a match/no-match decision.
func TestArenaPredictionEquivalence(t *testing.T) {
	tol := loadTolerances(t)
	datasets := []struct {
		key   string
		scale float64
	}{
		{"S-FZ", 1.0},
		{"S-BR", 1.0},
		{"S-DA", 0.08},
	}
	for _, ds := range datasets {
		t.Run(ds.key, func(t *testing.T) {
			sys, test := trainOn(t, ds.key, ds.scale, fastConfig())
			f32Path, int8Path := saveArenas(t, sys)
			variants := []struct {
				path   string
				format string
				budget arenaBudget
			}{
				{f32Path, FormatArenaF32, tol.F32},
				{int8Path, FormatArenaInt8, tol.Int8},
			}
			for _, v := range variants {
				loaded, err := LoadFile(v.path)
				if err != nil {
					t.Fatalf("LoadFile(%s): %v", v.path, err)
				}
				if loaded.Format() != v.format {
					t.Fatalf("Format() = %q, want %q", loaded.Format(), v.format)
				}
				if loaded.ArenaFile() == nil {
					t.Fatal("ArenaFile() is nil for an arena-backed system")
				}
				var flips int
				var maxDelta float64
				for _, p := range test.Pairs {
					l1, p1 := sys.Predict(p)
					l2, p2 := loaded.Predict(p)
					if l1 != l2 {
						flips++
					}
					if d := math.Abs(p1 - p2); d > maxDelta {
						maxDelta = d
					}
				}
				t.Logf("%s %s: max |Δproba| = %g, decision flips = %d/%d",
					ds.key, v.format, maxDelta, flips, len(test.Pairs))
				if flips > v.budget.DecisionFlips {
					t.Errorf("%s: %d decision flips, budget %d", v.format, flips, v.budget.DecisionFlips)
				}
				if maxDelta > v.budget.ProbaAbs {
					t.Errorf("%s: max |Δproba| %g exceeds budget %g", v.format, maxDelta, v.budget.ProbaAbs)
				}
			}
		})
	}
}

func TestArenaRoundTripMetadata(t *testing.T) {
	sys, _ := trainOn(t, "S-FZ", 1.0, fastConfig())
	f32Path, _ := saveArenas(t, sys)
	loaded, err := LoadFile(f32Path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName() != sys.ModelName() {
		t.Fatalf("model name = %q, want %q", loaded.ModelName(), sys.ModelName())
	}
	if len(loaded.Report()) != len(sys.Report()) {
		t.Fatal("report lost in arena round trip")
	}
	if len(loaded.StageSpans()) != len(sys.StageSpans()) {
		t.Fatal("stage spans lost in arena round trip")
	}
	if strings.Join(loaded.Schema(), ",") != strings.Join(sys.Schema(), ",") {
		t.Fatalf("schema = %v, want %v", loaded.Schema(), sys.Schema())
	}
	src, ok := loaded.Scorer().(interface{ Dim() int })
	if !ok {
		t.Fatalf("arena scorer is %T, want FastNN", loaded.Scorer())
	}
	if a, ok2 := loadedSource(loaded).(*embed.Arena); !ok2 {
		t.Fatalf("arena source is %T", loadedSource(loaded))
	} else if a.Dim() != src.Dim() {
		t.Fatalf("source dim %d != scorer dim %d", a.Dim(), src.Dim())
	}
}

func loadedSource(s *System) embed.Source { return s.source }

func TestArenaBackedSystemRefusesGobSave(t *testing.T) {
	sys, _ := trainOn(t, "S-FZ", 1.0, fastConfig())
	f32Path, _ := saveArenas(t, sys)
	loaded, err := LoadFile(f32Path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err == nil {
		t.Fatal("gob Save succeeded on an arena-backed system")
	} else if !strings.Contains(err.Error(), "arena-backed") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// But re-compiling to a new arena (e.g. f32 -> int8) must work.
	rePath := filepath.Join(t.TempDir(), "re.wyma")
	if err := loaded.SaveArenaFile(rePath, ArenaOptions{Int8: true}); err != nil {
		t.Fatalf("re-compile to int8: %v", err)
	}
	re, err := LoadFile(rePath)
	if err != nil {
		t.Fatal(err)
	}
	if re.Format() != FormatArenaInt8 {
		t.Fatalf("recompiled format = %q", re.Format())
	}
}

func TestSaveArenaUntrained(t *testing.T) {
	if err := (&System{}).SaveArenaFile(filepath.Join(t.TempDir(), "x.wyma"), ArenaOptions{}); err == nil {
		t.Fatal("expected error saving an untrained system")
	}
}

// TestLoadFileCorruptArenas drives corrupt .wyma inputs through the
// public LoadFile entry point: every failure must name the offending
// file and never panic. Byte-level header/section corruption is
// exhaustively covered in internal/arena; these cases focus on the
// core-level layer (metadata gob, scorer wiring).
func TestLoadFileCorruptArenas(t *testing.T) {
	dir := t.TempDir()

	// A structurally valid arena whose metadata section is not a gob.
	write := func(name string, b *arena.Build) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := arena.WriteFile(p, b); err != nil {
			t.Fatal(err)
		}
		return p
	}
	minimal := func() *arena.Build {
		return &arena.Build{
			Dim: 2, HashDim: 1, NMin: 3, NMax: 5,
			Keys:   []string{"a", "b"},
			VecF32: []float32{1, 0, 0, 1},
		}
	}

	garbageMeta := minimal()
	garbageMeta.Meta = []byte("definitely not a gob stream")
	garbageMetaPath := write("garbage-meta.wyma", garbageMeta)

	emptyMeta := minimal() // decodes to a zero arenaMeta: no model, no space
	var emptyBuf bytes.Buffer
	if err := gob.NewEncoder(&emptyBuf).Encode(&arenaMeta{}); err != nil {
		t.Fatal(err)
	}
	emptyMeta.Meta = emptyBuf.Bytes()
	emptyMetaPath := write("empty-meta.wyma", emptyMeta)

	// Truncated arena: the checksum (or section bounds) must catch it.
	sys, _ := trainOn(t, "S-FZ", 1.0, fastConfig())
	goodPath, _ := saveArenas(t, sys)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	truncPath := filepath.Join(dir, "truncated.wyma")
	if err := os.WriteFile(truncPath, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	flippedPath := filepath.Join(dir, "bitflip.wyma")
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(flippedPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	// scorerArena writes the trained system as an arena whose scorer
	// section went through mutate: shapes the arena parser accepts but
	// the scorer must refuse.
	scorerArena := func(name string, mutate func(sp *arena.Scorer)) string {
		t.Helper()
		build, err := embed.CompileArena(sys.source, embed.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := relevance.NewFastNN(sys.scorer.(*relevance.NN))
		if err != nil {
			t.Fatal(err)
		}
		build.Scorer = fast.Spec()
		mutate(build.Scorer)
		var meta bytes.Buffer
		if err := gob.NewEncoder(&meta).Encode(&arenaMeta{
			Cfg: shadowOf(sys.cfg), Schema: sys.schema, Space: sys.space, Model: sys.model, ScorerKind: scorerTagNN,
		}); err != nil {
			t.Fatal(err)
		}
		build.Meta = meta.Bytes()
		return write(name, build)
	}
	// The format pads every row to a multiple of 8 floats; a row stride
	// off that padding is the arena's ragged row.
	raggedPath := scorerArena("ragged.wyma", func(sp *arena.Scorer) {
		l := &sp.Layers[0]
		pad := l.InPadded + 1
		w := make([]float32, l.Out*pad)
		for i := 0; i < l.Out; i++ {
			copy(w[i*pad:], l.W[i*l.InPadded:i*l.InPadded+l.In])
		}
		l.W, l.InPadded = w, pad
	})
	chainPath := scorerArena("chain.wyma", func(sp *arena.Scorer) { sp.Layers[1].In-- })
	dimPath := scorerArena("dim.wyma", func(sp *arena.Scorer) { sp.Layers[0].In -= 2 })

	for _, tc := range []struct {
		name, path, wantSub string
	}{
		{"metadata not gob", garbageMetaPath, "metadata"},
		{"metadata missing components", emptyMetaPath, "missing fitted components"},
		{"truncated arena", truncPath, ""},
		{"payload bit flip", flippedPath, "checksum"},
		{"ragged scorer row", raggedPath, "not a multiple of 8"},
		{"broken scorer chain", chainPath, "does not chain"},
		{"scorer-embedding dim mismatch", dimPath, "does not match"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := LoadFile(tc.path)
			if err == nil {
				t.Fatalf("LoadFile succeeded on %s (%v)", tc.name, sys)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Fatalf("error %q does not name the file %q", err, tc.path)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

// TestArenaScorerVariants pins the ablation scorers through the arena:
// Binary and Cosine carry no weights, only a kind tag.
func TestArenaScorerVariants(t *testing.T) {
	d := fullDataset(mustProfile(t, "S-FZ"))
	for _, kind := range []ScorerKind{ScorerBinary, ScorerCosine} {
		cfg := fastConfig()
		cfg.Scorer = kind
		train, valid, test := d.MustSplit(0.6, 0.2, 1)
		sys, err := Train(train, valid, cfg)
		if err != nil {
			t.Fatalf("scorer %d: %v", kind, err)
		}
		path := filepath.Join(t.TempDir(), "ablate.wyma")
		if err := sys.SaveArenaFile(path, ArenaOptions{}); err != nil {
			t.Fatalf("scorer %d save: %v", kind, err)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatalf("scorer %d load: %v", kind, err)
		}
		var flips int
		for _, p := range test.Pairs {
			l1, _ := sys.Predict(p)
			l2, _ := loaded.Predict(p)
			if l1 != l2 {
				flips++
			}
		}
		if flips > 0 {
			t.Fatalf("scorer %d: %d decision flips through the arena", kind, flips)
		}
	}
}
