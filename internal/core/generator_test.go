package core

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/tokenize"
)

// TestGeneratorSideContract pins the pipeline.UnitGenerator contract the
// engine's unit-score memo rests on: each side's tokens and vectors come
// from that side's entity alone. The same entity, paired with different
// partners on the same side, must yield the same tokens and bit-identical
// vectors. It runs on gob and arena systems, with the default context
// mixing and with none, with the product-code heuristic, and with the
// Jaro–Winkler configuration. A generator that contextualized a side
// together with its partner would fail it wherever the mixing weight is
// not zero.
func TestGeneratorSideContract(t *testing.T) {
	p := mustProfile(t, "S-FZ")
	d := datagen.Generate(p, 0.3)
	train, valid, test := d.MustSplit(0.6, 0.2, 1)
	for name, mutate := range map[string]func(*Config){
		"default":        func(*Config) {},
		"ContextGamma 0": func(c *Config) { c.ContextGamma = 0 },
		"CodeExact":      func(c *Config) { c.CodeExact = true },
		"JaroWinkler":    func(c *Config) { c.Embedding = JaroWinkler },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := fastConfig()
			mutate(&cfg)
			sys, err := Train(train, valid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "model.f32.wyma")
			if err := sys.SaveArenaFile(path, ArenaOptions{}); err != nil {
				t.Fatal(err)
			}
			arenaSys, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for form, s := range map[string]*System{"gob": sys, "arena": arenaSys} {
				checkSideContract(t, form, s, test.Pairs)
			}
		})
	}
}

// checkSideContract generates each of the first pairs' entities against
// four different partners, on its own side, and requires every
// generation to give that side the tokens and vector bits of the first.
func checkSideContract(t *testing.T, form string, s *System, pairs []data.Pair) {
	t.Helper()
	const entities, partners = 12, 4
	if len(pairs) < entities+partners {
		t.Fatalf("%d test pairs, want at least %d", len(pairs), entities+partners)
	}
	for i, p := range pairs[:entities] {
		var left, right *sideView
		for j := 1; j <= partners; j++ {
			q := pairs[(i+j*3)%len(pairs)]
			asLeft := s.Process(data.Pair{Left: p.Left, Right: q.Right})
			asRight := s.Process(data.Pair{Left: q.Left, Right: p.Right})
			l := &sideView{asLeft.Left, asLeft.LeftVecs}
			r := &sideView{asRight.Right, asRight.RightVecs}
			if left == nil {
				left, right = l, r
				if len(l.tokens) == 0 || len(r.tokens) == 0 {
					t.Fatalf("%s: pair %d generated an empty side", form, i)
				}
				continue
			}
			if !left.same(l) {
				t.Fatalf("%s: left entity %q gave other tokens or vectors beside partner %q", form, p.Left, q.Right)
			}
			if !right.same(r) {
				t.Fatalf("%s: right entity %q gave other tokens or vectors beside partner %q", form, p.Right, q.Left)
			}
		}
	}
}

// sideView is one side of a generated record.
type sideView struct {
	tokens []tokenize.Token
	vecs   [][]float64
}

// same reports whether two sides have equal tokens and bit-identical
// vectors.
func (a *sideView) same(b *sideView) bool {
	if !reflect.DeepEqual(a.tokens, b.tokens) || len(a.vecs) != len(b.vecs) {
		return false
	}
	for i, v := range a.vecs {
		if len(v) != len(b.vecs[i]) {
			return false
		}
		for j, x := range v {
			if math.Float64bits(x) != math.Float64bits(b.vecs[i][j]) {
				return false
			}
		}
	}
	return true
}
