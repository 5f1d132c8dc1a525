package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"wym/internal/arena"
	"wym/internal/classify"
	"wym/internal/data"
	"wym/internal/embed"
	"wym/internal/features"
	"wym/internal/obs"
	"wym/internal/relevance"
)

// Arena persistence (DESIGN §10): a fitted System compiles into a flat
// .wyma artifact — the embedding vocabulary as a contiguous float32 (or
// int8) vector arena, the relevance network in padded float32 layout,
// and everything gob can't lay out flat (config, schema, feature space,
// classifier, training report) gob-encoded into the arena's metadata
// section. Loading mmaps the file, validates the header and checksum,
// decodes only the small metadata blob, and wires the zero-copy
// embed.Arena source and relevance.FastNN scorer into the same
// pipeline engine a gob-loaded system uses. Gob remains the
// interchange and training format; the arena is the serving format.

// Model format identifiers reported by (*System).Format.
const (
	FormatGob       = "gob"
	FormatArenaF32  = "arena-f32"
	FormatArenaInt8 = "arena-int8"
)

// scorer kind tags stored in the arena metadata.
const (
	scorerTagNN     = "nn"
	scorerTagBinary = "binary"
	scorerTagCosine = "cosine"
)

// arenaMeta is the gob-encoded metadata section of a .wyma file: the
// systemSnapshot minus the two components the arena stores flat (the
// embedding source and the NN scorer weights).
type arenaMeta struct {
	Cfg        configShadow
	Schema     data.Schema
	Space      *features.Space
	Model      classify.Classifier
	Report     []classify.Score
	Timing     Timing
	Spans      []obs.Span
	ScorerKind string
	// FeedbackN/FeedbackFP/FeedbackThreshold carry the online-learning
	// provenance of the source model into the read-only arena (gob
	// tolerates their absence in pre-feedback artifacts). Arena systems
	// cannot accept further feedback; the count and fingerprint exist so
	// `wym model info` stays truthful, and the recalibrated threshold so
	// the arena serves the same decisions as its gob source.
	FeedbackN         int
	FeedbackFP        string
	FeedbackThreshold float64
}

// ArenaOptions configures SaveArenaFile.
type ArenaOptions struct {
	// Int8 stores vectors quantized to int8 with per-vector scales
	// (4x smaller vector storage, ~0.4% vector error).
	Int8 bool
}

// Format reports the on-disk representation this system was loaded
// from (or will save to): FormatGob for trained and gob-loaded
// systems, FormatArenaF32/FormatArenaInt8 for arena-backed ones.
func (s *System) Format() string {
	if s.format == "" {
		return FormatGob
	}
	return s.format
}

// ArenaFile returns the backing arena mapping for an arena-backed
// system, or nil for gob-backed and freshly trained systems.
func (s *System) ArenaFile() *arena.File { return s.arena }

// SaveArenaFile compiles the fitted system into a .wyma arena at path.
// It fails on an untrained system and on component variants the flat
// format cannot represent (exotic embedding stacks).
func (s *System) SaveArenaFile(path string, opts ArenaOptions) error {
	if s.model == nil || s.scorer == nil || s.source == nil {
		return fmt.Errorf("core: cannot save an untrained system")
	}
	build, err := embed.CompileArena(s.source, embed.CompileOptions{Int8: opts.Int8})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	meta := arenaMeta{
		Cfg:               shadowOf(s.cfg),
		Schema:            s.schema,
		Space:             s.space,
		Model:             s.model,
		Report:            s.report,
		Timing:            s.timing,
		Spans:             s.spans,
		FeedbackN:         s.feedbackN,
		FeedbackFP:        s.FeedbackFingerprint(),
		FeedbackThreshold: s.fbThreshold,
	}
	switch sc := s.scorer.(type) {
	case *relevance.NN:
		fast, err := relevance.NewFastNN(sc)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		build.Scorer = fast.Spec()
		meta.ScorerKind = scorerTagNN
	case *relevance.FastNN:
		build.Scorer = sc.Spec()
		meta.ScorerKind = scorerTagNN
	case relevance.Binary:
		meta.ScorerKind = scorerTagBinary
	case relevance.Cosine:
		meta.ScorerKind = scorerTagCosine
	default:
		return fmt.Errorf("core: cannot compile scorer %T into an arena", s.scorer)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&meta); err != nil {
		return fmt.Errorf("core: encoding arena metadata: %w", err)
	}
	build.Meta = buf.Bytes()
	if err := arena.WriteFile(path, build); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// loadArenaFile opens a .wyma arena and assembles a serving System
// around its zero-copy views. Errors carry the file path, matching
// LoadFile's gob branch.
func loadArenaFile(path string) (*System, error) {
	f, err := arena.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sys, err := systemFromArena(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return sys, nil
}

// systemFromArena builds a System over an opened arena. On success the
// System owns f (kept alive via the embedding source and s.arena).
func systemFromArena(f *arena.File) (*System, error) {
	var meta arenaMeta
	if err := gob.NewDecoder(bytes.NewReader(f.Meta)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("core: decoding arena metadata: %w", err)
	}
	if meta.Model == nil || meta.Space == nil {
		return nil, fmt.Errorf("core: arena metadata is missing fitted components")
	}
	src, err := embed.NewArena(f)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var scorer relevance.Scorer
	switch meta.ScorerKind {
	case scorerTagNN:
		fast, err := relevance.FastNNFromSpec(f.Scorer)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		scorer = fast
	case scorerTagBinary:
		scorer = relevance.Binary{}
	case scorerTagCosine:
		scorer = relevance.Cosine{}
	default:
		return nil, fmt.Errorf("core: arena has unknown scorer kind %q", meta.ScorerKind)
	}
	if err := checkScorerDim(scorer, src); err != nil {
		return nil, err
	}
	format := FormatArenaF32
	if f.Int8() {
		format = FormatArenaInt8
	}
	s := &System{
		cfg:         meta.Cfg.config(),
		schema:      meta.Schema,
		source:      src,
		scorer:      scorer,
		space:       meta.Space,
		model:       meta.Model,
		report:      meta.Report,
		timing:      meta.Timing,
		spans:       meta.Spans,
		format:      format,
		arena:       f,
		feedbackN:   meta.FeedbackN,
		feedbackFP:  meta.FeedbackFP,
		fbThreshold: meta.FeedbackThreshold,
	}
	s.rebuildEngine()
	return s, nil
}

// sniffArena reports whether the file at path starts with the arena
// magic. Read errors are deferred to the format-specific loader.
func sniffArena(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [len(arena.Magic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == arena.Magic
}
