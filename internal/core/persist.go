package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"wym/internal/arena"
	"wym/internal/classify"
	"wym/internal/data"
	"wym/internal/durable"
	"wym/internal/embed"
	"wym/internal/features"
	"wym/internal/feedback"
	"wym/internal/nn"
	"wym/internal/obs"
	"wym/internal/relevance"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// Persistence: a fitted System serializes with encoding/gob so a matcher
// can be trained once and served from many processes. The nn.Config's
// Verbose callback cannot be encoded, so the configuration round-trips
// through a function-free shadow struct; everything else (embedding
// sources, scorer, classifier) carries its own gob support.

// trainShadow mirrors nn.Config without the Verbose callback.
type trainShadow struct {
	Epochs    int
	BatchSize int
	LR        float64
	L2        float64
	Loss      nn.Loss
	Seed      int64
}

// configShadow mirrors Config with the shadowed optimizer settings.
type configShadow struct {
	Thresholds       units.Thresholds
	Tokenize         tokenize.Options
	Embedding        EmbeddingKind
	Scorer           ScorerKind
	Features         FeatureKind
	CodeExact        bool
	ContextGamma     float64
	Targets          relevance.TargetConfig
	ScorerHidden     []int
	ScorerTrain      trainShadow
	ScorerSeed       int64
	MaxFineTunePairs int
	Seed             int64
}

func shadowOf(cfg Config) configShadow {
	t := cfg.ScorerNN.Train
	return configShadow{
		Thresholds:   cfg.Thresholds,
		Tokenize:     cfg.Tokenize,
		Embedding:    cfg.Embedding,
		Scorer:       cfg.Scorer,
		Features:     cfg.Features,
		CodeExact:    cfg.CodeExact,
		ContextGamma: cfg.ContextGamma,
		Targets:      cfg.Targets,
		ScorerHidden: cfg.ScorerNN.Hidden,
		ScorerTrain: trainShadow{
			Epochs: t.Epochs, BatchSize: t.BatchSize, LR: t.LR, L2: t.L2,
			Loss: t.Loss, Seed: t.Seed,
		},
		ScorerSeed:       cfg.ScorerNN.Seed,
		MaxFineTunePairs: cfg.MaxFineTunePairs,
		Seed:             cfg.Seed,
	}
}

func (s configShadow) config() Config {
	return Config{
		Thresholds:   s.Thresholds,
		Tokenize:     s.Tokenize,
		Embedding:    s.Embedding,
		Scorer:       s.Scorer,
		Features:     s.Features,
		CodeExact:    s.CodeExact,
		ContextGamma: s.ContextGamma,
		Targets:      s.Targets,
		ScorerNN: relevance.NNConfig{
			Hidden: s.ScorerHidden,
			Train: nn.Config{
				Epochs: s.ScorerTrain.Epochs, BatchSize: s.ScorerTrain.BatchSize,
				LR: s.ScorerTrain.LR, L2: s.ScorerTrain.L2,
				Loss: s.ScorerTrain.Loss, Seed: s.ScorerTrain.Seed,
			},
			Seed: s.ScorerSeed,
		},
		MaxFineTunePairs: s.MaxFineTunePairs,
		Seed:             s.Seed,
	}
}

// systemSnapshot is the on-disk form of a fitted System. Spans and the
// feedback fields were added after the first release; gob tolerates
// their absence, so older artifacts load with no stage-timing record
// and no feedback state rather than failing.
type systemSnapshot struct {
	Cfg       configShadow
	Schema    data.Schema
	Source    embed.Source
	Scorer    relevance.Scorer
	Space     *features.Space
	Model     classify.Classifier
	Report    []classify.Score
	Timing    Timing
	Spans     []obs.Span
	FeedbackN int
	// FbLabels is the accumulated label multiset in canonical order;
	// FbThreshold the decision cutoff recalibrated over it. Both ride
	// along so a loaded model keeps accepting feedback equivalently to
	// the in-memory one.
	FbLabels    []feedback.Label
	FbThreshold float64
}

// Save serializes the fitted system. It fails on an untrained system
// and on arena-backed systems, whose zero-copy components have no gob
// form — convert from the original gob artifact instead.
func (s *System) Save(w io.Writer) error {
	if s.model == nil || s.scorer == nil || s.source == nil {
		return fmt.Errorf("core: cannot save an untrained system")
	}
	if s.arena != nil {
		return fmt.Errorf("core: cannot gob-encode an arena-backed system (format %s); convert from the gob artifact", s.Format())
	}
	snap := systemSnapshot{
		Cfg:         shadowOf(s.cfg),
		Schema:      s.schema,
		Source:      s.source,
		Scorer:      s.scorer,
		Space:       s.space,
		Model:       s.model,
		Report:      s.report,
		Timing:      s.timing,
		Spans:       s.spans,
		FeedbackN:   s.feedbackN,
		FbLabels:    s.fbLabels,
		FbThreshold: s.fbThreshold,
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("core: encoding system: %w", err)
	}
	return nil
}

// Load restores a system saved with Save.
func Load(r io.Reader) (*System, error) {
	var snap systemSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding system: %w", err)
	}
	if snap.Model == nil || snap.Scorer == nil || snap.Source == nil || snap.Space == nil {
		return nil, fmt.Errorf("core: snapshot is missing fitted components")
	}
	if err := checkScorerDim(snap.Scorer, snap.Source); err != nil {
		return nil, err
	}
	s := &System{
		cfg:         snap.Cfg.config(),
		schema:      snap.Schema,
		source:      snap.Source,
		scorer:      snap.Scorer,
		space:       snap.Space,
		model:       snap.Model,
		report:      snap.Report,
		timing:      snap.Timing,
		spans:       snap.Spans,
		feedbackN:   snap.FeedbackN,
		fbLabels:    snap.FbLabels,
		fbThreshold: snap.FbThreshold,
	}
	s.rebuildEngine()
	return s, nil
}

// checkScorerDim fails unless a network scorer reads 2 × the embedding
// dimension the source produces: its kernel indexes features by that
// width, so a mismatched pair would read past the vectors or silently
// truncate them. Binary and Cosine take any width.
func checkScorerDim(sc relevance.Scorer, src embed.Source) error {
	if d, ok := sc.(interface{ Dim() int }); ok && d.Dim() != src.Dim() {
		return fmt.Errorf("core: scorer input width %d does not match the %d-dim embeddings (want %d)",
			2*d.Dim(), src.Dim(), 2*src.Dim())
	}
	return nil
}

// SaveFile saves the system to a file, atomically and durably: a crash
// or a failed save leaves either the old file or the complete new one
// (durable.WriteFile), so it is safe to point at the model being served.
func (s *System) SaveFile(path string) error {
	return durable.WriteFile(path, 0o666, s.Save)
}

// LoadFile restores a system from a file, auto-detecting the format:
// files starting with the arena magic load through the zero-copy mmap
// path (arena_persist.go), everything else through gob. Decode
// failures — a truncated or corrupt stream, an empty file, a gob
// holding some other type — are wrapped with the file path so
// operators can tell *which* artifact is bad when a reload fails.
// Obviously truncated files (zero bytes, or an arena magic with less
// than a full header behind it) are rejected up front with an explicit
// "truncated" error instead of whatever EOF the decoder would report.
func LoadFile(path string) (*System, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if st.Size() == 0 {
		return nil, fmt.Errorf("core: artifact %s is truncated: file is empty", path)
	}
	if sniffArena(path) {
		if st.Size() < arena.HeaderSize {
			return nil, fmt.Errorf("core: artifact %s is truncated: %d bytes, arena header needs %d",
				path, st.Size(), arena.HeaderSize)
		}
		return loadArenaFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	sys, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return sys, nil
}
