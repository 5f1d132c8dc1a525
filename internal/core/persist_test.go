package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wym/internal/arena"
	"wym/internal/durable"
	"wym/internal/nn"
	"wym/internal/relevance"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	sys, test := trainOn(t, "S-FZ", 1.0, fastConfig())
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions and probabilities must be identical on every test record.
	for _, p := range test.Pairs {
		l1, p1 := sys.Predict(p)
		l2, p2 := loaded.Predict(p)
		if l1 != l2 || p1 != p2 {
			t.Fatalf("prediction diverged after reload: %d/%v vs %d/%v", l1, p1, l2, p2)
		}
	}
	// Explanations must match too (scores flow through scorer + space +
	// model coefficients).
	ex1 := sys.Explain(test.Pairs[0])
	ex2 := loaded.Explain(test.Pairs[0])
	if len(ex1.Units) != len(ex2.Units) {
		t.Fatalf("unit counts differ: %d vs %d", len(ex1.Units), len(ex2.Units))
	}
	for i := range ex1.Units {
		if ex1.Units[i] != ex2.Units[i] {
			t.Fatalf("unit %d differs: %+v vs %+v", i, ex1.Units[i], ex2.Units[i])
		}
	}
	if loaded.ModelName() != sys.ModelName() {
		t.Fatalf("model name = %q, want %q", loaded.ModelName(), sys.ModelName())
	}
	if len(loaded.Report()) != len(sys.Report()) {
		t.Fatal("report lost")
	}
	// The stage-timing spans persist with the model.
	spans := loaded.StageSpans()
	if len(spans) == 0 || len(spans) != len(sys.StageSpans()) {
		t.Fatalf("spans = %d after reload, want %d (non-zero)", len(spans), len(sys.StageSpans()))
	}
	names := make(map[string]bool, len(spans))
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"embeddings/cooc", "units/train", "scorer/train", "features", "model/select"} {
		if !names[want] {
			t.Fatalf("reloaded spans missing %q (have %v)", want, names)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	sys, test := trainOn(t, "S-FZ", 1.0, fastConfig())
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := sys.Predict(test.Pairs[0])
	l2, _ := loaded.Predict(test.Pairs[0])
	if l1 != l2 {
		t.Fatal("file round trip changed predictions")
	}
}

// TestSaveFileAtomic: a save that fails, before writing or halfway
// through, leaves the old artifact byte-identical and no temp file
// behind; a save that succeeds replaces the file whole and keeps the
// mode os.Create would give it. A new stage checkpoint is owner-only.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	old := []byte("the artifact being served")
	if err := os.WriteFile(path, old, 0o640); err != nil {
		t.Fatal(err)
	}
	onlyFiles := func(want ...string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Fatalf("directory holds %v, want %v", names, want)
		}
	}
	unchanged := func() {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("old artifact changed: %q, %v", got, err)
		}
		onlyFiles("model.gob")
	}

	if err := (&System{}).SaveFile(path); err == nil {
		t.Fatal("saving an untrained system succeeded")
	}
	unchanged()

	errDisk := errors.New("disk full")
	err := durable.WriteFile(path, 0o666, func(w io.Writer) error {
		if _, err := w.Write([]byte("half an art")); err != nil {
			return err
		}
		return errDisk
	})
	if !errors.Is(err, errDisk) {
		t.Fatalf("failed write returned %v, want %v", err, errDisk)
	}
	unchanged()

	write := func(p string, data string) {
		t.Helper()
		if err := durable.WriteFile(p, 0o666, func(w io.Writer) error {
			_, err := io.WriteString(w, data)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(p); err != nil || string(got) != data {
			t.Fatalf("%s holds %q, %v; want %q", p, got, err, data)
		}
	}
	perm := func(p string) os.FileMode {
		t.Helper()
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return st.Mode().Perm()
	}
	write(path, "new artifact")
	if got := perm(path); got != 0o640 {
		t.Fatalf("replaced file mode %v, want 0640", got)
	}
	onlyFiles("model.gob")

	created := filepath.Join(dir, "created")
	f, err := os.Create(created)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	write(filepath.Join(dir, "fresh"), "x")
	if got, want := perm(filepath.Join(dir, "fresh")), perm(created); got != want {
		t.Fatalf("new file mode %v; os.Create gives %v", got, want)
	}
	onlyFiles("created", "fresh", "model.gob")

	ck, err := newCheckpointer(filepath.Join(dir, "ckpt"), Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.save(StageScorer, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := perm(ck.path(StageScorer)); got != 0o600 {
		t.Fatalf("new checkpoint mode %v, want 0600", got)
	}
}

func TestSaveUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := (&System{}).Save(&buf); err == nil {
		t.Fatal("expected error saving an untrained system")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadFileCorruptInputs(t *testing.T) {
	dir := t.TempDir()

	// A gob of an entirely different type: valid stream, wrong payload.
	wrongType := filepath.Join(dir, "wrong-type.gob")
	f, err := os.Create(wrongType)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(map[string]int{"not": 1, "a": 2, "system": 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// scorerArtifact saves the trained system with its scorer swapped for
	// a network of the given sizes over dim-dimensional embeddings.
	// corrupt runs after NewNN has accepted the network, so the artifact
	// carries a shape NewNN refuses: what a damaged file looks like.
	scorerArtifact := func(t *testing.T, name string, dim int, sizes []int, corrupt func(*nn.Net)) string {
		sys, _ := trainOn(t, "S-FZ", 1.0, fastConfig())
		acts := make([]nn.Activation, len(sizes)-1)
		for i := range acts {
			acts[i] = nn.ReLU
		}
		net := nn.New(sizes, acts, 1)
		sc, err := relevance.NewNN(net, dim)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt != nil {
			corrupt(net)
		}
		bad := *sys
		bad.scorer = sc
		p := filepath.Join(dir, name)
		if err := bad.SaveFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	embDim := func(t *testing.T) int {
		sys, _ := trainOn(t, "S-FZ", 1.0, fastConfig())
		return sys.source.Dim()
	}

	cases := []struct {
		name  string
		want  string // required error substring beyond the path ("" = any)
		setup func(t *testing.T) string
	}{
		{"garbage bytes", "", func(t *testing.T) string {
			p := filepath.Join(dir, "garbage.gob")
			if err := os.WriteFile(p, []byte("\x00\xff definitely not a gob"), 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}},
		// The truncation preflight must call an empty artifact what it
		// is, not relay the decoder's bare EOF.
		{"zero-byte file", "truncated", func(t *testing.T) string {
			p := filepath.Join(dir, "empty.gob")
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"arena magic only", "truncated", func(t *testing.T) string {
			p := filepath.Join(dir, "magic-only.wyma")
			if err := os.WriteFile(p, []byte(arena.Magic), 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"partial arena header", "truncated", func(t *testing.T) string {
			p := filepath.Join(dir, "half-header.wyma")
			buf := make([]byte, arena.HeaderSize/2)
			copy(buf, arena.Magic)
			if err := os.WriteFile(p, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"wrong-type gob", "", func(t *testing.T) string { return wrongType }},
		{"ragged scorer row", "row 1 has", func(t *testing.T) string {
			d := embDim(t)
			return scorerArtifact(t, "ragged.gob", d, []int{2 * d, 4, 1}, func(n *nn.Net) {
				n.Layers[0].W[1] = n.Layers[0].W[1][:2*d-1]
			})
		}},
		{"broken scorer chain", "does not chain", func(t *testing.T) string {
			d := embDim(t)
			return scorerArtifact(t, "chain.gob", d, []int{2 * d, 4, 1}, func(n *nn.Net) {
				n.Layers[1] = nn.New([]int{5, 1}, []nn.Activation{nn.Tanh}, 1).Layers[0]
			})
		}},
		{"scorer-embedding dim mismatch", "does not match", func(t *testing.T) string {
			d := embDim(t) + 1
			return scorerArtifact(t, "dim.gob", d, []int{2 * d, 4, 1}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.setup(t)
			sys, err := LoadFile(path)
			if err == nil {
				t.Fatalf("LoadFile(%s) succeeded on corrupt input (%v)", path, sys)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the offending file %q", err, path)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLoadFileTruncated(t *testing.T) {
	// A prefix of a real snapshot must fail loudly, not yield a
	// half-initialized system.
	sys, _ := trainOn(t, "S-FZ", 1.0, fastConfig())
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "truncated.gob")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("expected error loading a truncated snapshot")
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the file", err)
	}
}

func TestSaveLoadAllVariants(t *testing.T) {
	// Every scorer and embedding variant must survive the round trip —
	// each exercises different gob-registered concrete types.
	d := fullDataset(mustProfile(t, "S-FZ"))
	variants := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.Embedding = BERTPretrained },
		func(c *Config) { c.Scorer = ScorerBinary },
		func(c *Config) { c.Scorer = ScorerCosine },
		func(c *Config) { c.Features = FeaturesSimplified },
	}
	for i, mutate := range variants {
		cfg := fastConfig()
		mutate(&cfg)
		train, valid, test := d.MustSplit(0.6, 0.2, 1)
		sys, err := Train(train, valid, cfg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatalf("variant %d save: %v", i, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("variant %d load: %v", i, err)
		}
		for _, pr := range test.Pairs[:10] {
			l1, p1 := sys.Predict(pr)
			l2, p2 := loaded.Predict(pr)
			if l1 != l2 || p1 != p2 {
				t.Fatalf("variant %d diverged after reload", i)
			}
		}
	}
}
