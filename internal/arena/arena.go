// Package arena implements the .wyma zero-copy model container (DESIGN
// §10): a flat, mmap-able file holding a trained WYM model's embedding
// vectors as one contiguous float32 (or int8-quantized) arena, an
// offset-indexed sorted vocabulary, the optional embedding fine-tune
// matrix, the relevance-scorer weights in padded float32 layout, and an
// opaque metadata blob for the owning package (internal/core).
//
// The gob snapshot stays the interchange format; an arena is a compiled
// artifact derived from it (`wym model convert`). Opening one is O(ms):
// mmap, header validation and a CRC-32C payload check — no decode, no
// per-vector allocation. All views returned by Open alias the mapping
// and stay valid until the File is garbage collected (a finalizer
// unmaps), so hot-swapped models keep serving in-flight requests.
//
// Layout (all integers little-endian; every section 64-byte aligned):
//
//	[0:8)    magic "WYMARENA"
//	[8:12)   format version (currently 1)
//	[12:16)  flags: bit0 int8 vectors, bit1 fine-tune matrix, bit2 scorer
//	[16:20)  dim — embedding dimensionality
//	[20:24)  hashDim, [24:28) hashNMin, [28:32) hashNMax — OOV hash config
//	[32:36)  vocabN — number of vocabulary entries
//	[36:40)  CRC-32C (Castagnoli) over everything from byte 64 onward
//	[40:64)  reserved, must be zero
//	[64:192) section table: 8 × {offset u64, length u64}
//	[192:)   sections: meta, keyData, keyOffs, vectors, scales, matrix,
//	         scorer, reserved
package arena

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"unsafe"

	"wym/internal/durable"
)

// Magic identifies a .wyma arena file; it doubles as the sniff prefix
// core.LoadFile uses to auto-detect the format.
const Magic = "WYMARENA"

// Version is the current arena format version. Readers reject any other
// value: the format evolves by bumping the version, never by silently
// reinterpreting fields.
const Version = 1

// HeaderSize is the fixed on-disk header length. A file carrying the
// Magic but fewer bytes than this is structurally truncated — callers
// can reject it before mapping.
const HeaderSize = headerSize

// Format flags.
const (
	FlagInt8   = 1 << 0 // vectors are int8 with per-vector scales
	FlagMatrix = 1 << 1 // fine-tune matrix section present
	FlagScorer = 1 << 2 // relevance-scorer section present
)

const (
	headerSize  = 192
	sectionN    = 8
	secMeta     = 0
	secKeyData  = 1
	secKeyOffs  = 2
	secVectors  = 3
	secScales   = 4
	secMatrix   = 5
	secScorer   = 6
	secReserved = 7

	// Sanity caps: reject absurd counts before any multiplication or
	// allocation, so corrupt headers fail fast instead of OOMing.
	maxVocab = 1 << 26
	maxDim   = 1 << 16
	maxLayer = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Activation identifiers for scorer layers. They mirror internal/nn but
// are pinned independently here: the file format must not drift if the
// nn package reorders its enum.
const (
	ActIdentity = 0
	ActReLU     = 1
	ActTanh     = 2
	ActSigmoid  = 3
)

// ScorerLayer is one dense layer of the arena scorer: weights stored
// row-major with each row zero-padded from In to InPadded floats so the
// SIMD kernels can run full 8-wide blocks without a scalar tail.
type ScorerLayer struct {
	In, Out  int
	InPadded int
	Act      uint32
	W        []float32 // len Out*InPadded
	B        []float32 // len Out
}

// Scorer is the relevance network in arena layout.
type Scorer struct {
	Layers []ScorerLayer
}

// File is an opened arena. All slice fields alias the underlying mapping
// (or one aligned copy for non-mmap opens) — they are read-only and stay
// valid until the File is garbage collected or Close is called. Close
// must only be called once no views are referenced anymore; long-lived
// consumers (the serving path) simply keep the File reachable and let
// the finalizer unmap it.
type File struct {
	Path    string
	Flags   uint32
	Dim     int
	HashDim int
	NMin    int
	NMax    int
	VocabN  int
	CRC     uint32

	Meta    []byte
	keyData []byte
	keyOffs []uint32  // VocabN+1 monotone offsets into keyData
	VecF32  []float32 // len VocabN*Dim; nil when Int8()
	VecI8   []int8    // len VocabN*Dim; nil unless Int8()
	Scales  []float32 // len VocabN; nil unless Int8()
	Matrix  []float64 // len Dim*Dim; nil when absent
	Scorer  *Scorer   // nil when absent

	data   []byte
	mapped bool
}

// Int8 reports whether the vector arena is int8-quantized.
func (f *File) Int8() bool { return f.Flags&FlagInt8 != 0 }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Key returns vocabulary entry i as a zero-copy string view into the
// arena. The string aliases the mapping: valid while the File is.
func (f *File) Key(i int) string {
	lo, hi := f.keyOffs[i], f.keyOffs[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&f.keyData[lo], int(hi-lo))
}

// Lookup binary-searches the sorted vocabulary for token and returns its
// index, or -1 when absent.
func (f *File) Lookup(token string) int {
	lo, hi := 0, f.VocabN
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.Key(mid) < token {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < f.VocabN && f.Key(lo) == token {
		return lo
	}
	return -1
}

// FromBytes parses an arena from an in-memory image, copying it into an
// 8-byte-aligned buffer so the typed views are safe on any input. name
// qualifies error messages the way Open's path does.
func FromBytes(name string, b []byte) (*File, error) {
	// Back the copy with a []uint64 allocation: byte slices carry no
	// alignment guarantee, and the float64 matrix view needs 8 bytes.
	backing := make([]uint64, (len(b)+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(backing))), len(b))
	copy(data, b)
	return parse(name, data, false)
}

// Open maps path and validates it. On platforms without mmap support it
// falls back to reading the file into memory. The returned File carries
// a finalizer that unmaps it when it becomes unreachable.
func Open(path string) (*File, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("arena %s: %w", path, err)
	}
	f, err := parse(path, data, mapped)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	return f, nil
}

func parse(path string, data []byte, mapped bool) (*File, error) {
	fail := func(format string, args ...any) (*File, error) {
		return nil, fmt.Errorf("arena %s: %s", path, fmt.Sprintf(format, args...))
	}
	if len(data) < headerSize {
		return fail("file too small: %d bytes, header needs %d", len(data), headerSize)
	}
	if string(data[0:8]) != Magic {
		return fail("bad magic %q, want %q", data[0:8], Magic)
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	if v := u32(8); v != Version {
		return fail("unsupported format version %d (reader supports %d)", v, Version)
	}
	f := &File{
		Path:    path,
		Flags:   u32(12),
		Dim:     int(u32(16)),
		HashDim: int(u32(20)),
		NMin:    int(u32(24)),
		NMax:    int(u32(28)),
		VocabN:  int(u32(32)),
		CRC:     u32(36),
		data:    data,
		mapped:  mapped,
	}
	if f.Flags&^uint32(FlagInt8|FlagMatrix|FlagScorer) != 0 {
		return fail("unknown flag bits %#x", f.Flags)
	}
	if f.Dim <= 0 || f.Dim > maxDim {
		return fail("implausible dim %d", f.Dim)
	}
	if f.HashDim < 0 || f.HashDim > f.Dim || f.NMin <= 0 || f.NMax < f.NMin || f.NMax > 64 {
		return fail("implausible hash config dim=%d n=[%d,%d]", f.HashDim, f.NMin, f.NMax)
	}
	if f.VocabN < 0 || f.VocabN > maxVocab {
		return fail("implausible vocab size %d", f.VocabN)
	}
	if got := crc32.Checksum(data[64:], castagnoli); got != f.CRC {
		return fail("checksum mismatch: header says %#08x, payload is %#08x", f.CRC, got)
	}

	// Section table. Each entry must lie inside the file past the header
	// and match the exact length implied by the header counts.
	type section struct{ off, n uint64 }
	var secs [sectionN]section
	for i := range secs {
		base := 64 + 16*i
		secs[i] = section{binary.LittleEndian.Uint64(data[base:]), binary.LittleEndian.Uint64(data[base+8:])}
		s := secs[i]
		if s.n == 0 {
			continue
		}
		if s.off < headerSize || s.off > uint64(len(data)) || s.n > uint64(len(data))-s.off {
			return fail("section %d out of bounds: off=%d len=%d file=%d", i, s.off, s.n, len(data))
		}
	}
	want := func(i int, n uint64, what string) error {
		if secs[i].n != n {
			return fmt.Errorf("arena %s: %s section length %d, want %d", path, what, secs[i].n, n)
		}
		return nil
	}
	vocabN, dim := uint64(f.VocabN), uint64(f.Dim)
	if err := want(secKeyOffs, 4*(vocabN+1), "vocab offsets"); err != nil {
		return nil, err
	}
	vecLen := vocabN * dim * 4
	if f.Int8() {
		vecLen = vocabN * dim
	}
	if err := want(secVectors, vecLen, "vector arena"); err != nil {
		return nil, err
	}
	scaleLen := uint64(0)
	if f.Int8() {
		scaleLen = 4 * vocabN
	}
	if err := want(secScales, scaleLen, "quantization scales"); err != nil {
		return nil, err
	}
	matLen := uint64(0)
	if f.Flags&FlagMatrix != 0 {
		matLen = 8 * dim * dim
	}
	if err := want(secMatrix, matLen, "fine-tune matrix"); err != nil {
		return nil, err
	}
	if f.Flags&FlagScorer != 0 && secs[secScorer].n == 0 {
		return fail("scorer flag set but scorer section empty")
	}
	if f.Flags&FlagScorer == 0 && secs[secScorer].n != 0 {
		return fail("scorer section present without scorer flag")
	}
	for _, a := range [...]struct {
		sec   int
		align uint64
	}{{secKeyOffs, 4}, {secVectors, 4}, {secScales, 4}, {secMatrix, 8}, {secScorer, 4}} {
		if secs[a.sec].n != 0 && secs[a.sec].off%a.align != 0 {
			return fail("section %d misaligned: off=%d needs %d-byte alignment", a.sec, secs[a.sec].off, a.align)
		}
	}

	f.Meta = data[secs[secMeta].off : secs[secMeta].off+secs[secMeta].n]
	f.keyData = data[secs[secKeyData].off : secs[secKeyData].off+secs[secKeyData].n]
	f.keyOffs = viewU32(data, secs[secKeyOffs].off, vocabN+1)
	if f.Int8() {
		f.VecI8 = viewI8(data, secs[secVectors].off, vocabN*dim)
		f.Scales = viewF32(data, secs[secScales].off, vocabN)
	} else {
		f.VecF32 = viewF32(data, secs[secVectors].off, vocabN*dim)
	}
	if matLen != 0 {
		f.Matrix = viewF64(data, secs[secMatrix].off, dim*dim)
	}

	// Vocabulary offsets: monotone, starting at 0, ending at len(keyData),
	// keys strictly ascending (binary search depends on it).
	if f.keyOffs[0] != 0 {
		return fail("vocab offsets must start at 0, got %d", f.keyOffs[0])
	}
	for i := 0; i < f.VocabN; i++ {
		if f.keyOffs[i+1] < f.keyOffs[i] {
			return fail("vocab offset %d decreases: %d -> %d", i+1, f.keyOffs[i], f.keyOffs[i+1])
		}
	}
	if last := f.keyOffs[f.VocabN]; uint64(last) != uint64(len(f.keyData)) {
		return fail("vocab offsets end at %d, key data is %d bytes", last, len(f.keyData))
	}
	for i := 1; i < f.VocabN; i++ {
		if f.Key(i-1) >= f.Key(i) {
			return fail("vocabulary not strictly sorted at entry %d (%q >= %q)", i, f.Key(i-1), f.Key(i))
		}
	}

	if f.Flags&FlagScorer != 0 {
		sc, err := parseScorer(data[secs[secScorer].off : secs[secScorer].off+secs[secScorer].n])
		if err != nil {
			return fail("scorer section: %v", err)
		}
		f.Scorer = sc
	}
	registerCleanup(f)
	return f, nil
}

func parseScorer(b []byte) (*Scorer, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("truncated: %d bytes", len(b))
	}
	l := int(binary.LittleEndian.Uint32(b))
	if l <= 0 || l > 64 {
		return nil, fmt.Errorf("implausible layer count %d", l)
	}
	headLen := 4 + 16*l
	if len(b) < headLen {
		return nil, fmt.Errorf("truncated layer table: %d bytes, want %d", len(b), headLen)
	}
	sc := &Scorer{Layers: make([]ScorerLayer, l)}
	off := uint64(headLen)
	for i := range sc.Layers {
		base := 4 + 16*i
		in := int(binary.LittleEndian.Uint32(b[base:]))
		out := int(binary.LittleEndian.Uint32(b[base+4:]))
		act := binary.LittleEndian.Uint32(b[base+8:])
		pad := int(binary.LittleEndian.Uint32(b[base+12:]))
		if in <= 0 || in > maxLayer || out <= 0 || out > maxLayer || pad < in || pad > maxLayer {
			return nil, fmt.Errorf("layer %d implausible shape in=%d out=%d padded=%d", i, in, out, pad)
		}
		if act > ActSigmoid {
			return nil, fmt.Errorf("layer %d unknown activation %d", i, act)
		}
		wN, bN := uint64(out)*uint64(pad), uint64(out)
		need := 4 * (wN + bN)
		if uint64(len(b))-off < need {
			return nil, fmt.Errorf("layer %d weights truncated: need %d bytes at offset %d of %d", i, need, off, len(b))
		}
		sc.Layers[i] = ScorerLayer{
			In: in, Out: out, InPadded: pad, Act: act,
			W: viewF32(b, off, wN),
			B: viewF32(b, off+4*wN, bN),
		}
		off += need
	}
	if off != uint64(len(b)) {
		return nil, fmt.Errorf("%d trailing bytes after layers", uint64(len(b))-off)
	}
	return sc, nil
}

func viewF32(data []byte, off, n uint64) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&data[off])), n)
}

func viewF64(data []byte, off, n uint64) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[off])), n)
}

func viewU32(data []byte, off, n uint64) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&data[off])), n)
}

func viewI8(data []byte, off, n uint64) []int8 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&data[off])), n)
}

// registerCleanup arranges for mmap'd arenas to be unmapped when the
// File becomes unreachable. This is what makes hot reload safe: the old
// model's mapping survives exactly as long as something (an in-flight
// request, a swapped-out System) still references it.
func registerCleanup(f *File) {
	if f.mapped {
		runtime.SetFinalizer(f, finalizeFile)
	}
}

func finalizeFile(f *File) { _ = unmapFile(f.data) }

// Close releases the arena eagerly. It must only be called once no view
// into the file (vectors, keys, scorer weights, meta) is referenced
// anymore; long-lived consumers should instead drop the File and let the
// finalizer unmap it.
func (f *File) Close() error {
	var err error
	if f.mapped {
		runtime.SetFinalizer(f, nil)
		f.mapped = false
		err = unmapFile(f.data)
	}
	f.data, f.Meta, f.keyData = nil, nil, nil
	f.keyOffs, f.VecF32, f.VecI8, f.Scales, f.Matrix, f.Scorer = nil, nil, nil, nil, nil, nil
	return err
}

// readAligned reads path into an 8-byte-aligned buffer (the mmap
// fallback; a plain []byte allocation guarantees no alignment for the
// float64 matrix view).
func readAligned(path string) ([]byte, bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	backing := make([]uint64, (len(b)+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(backing))), len(b))
	copy(data, b)
	return data, false, nil
}

// Build is the writer-side description of an arena. Exactly one of
// VecF32 / (VecI8, Scales) must be populated.
type Build struct {
	Dim     int
	HashDim int
	NMin    int
	NMax    int
	Keys    []string  // strictly ascending
	VecF32  []float32 // len(Keys)*Dim
	VecI8   []int8    // len(Keys)*Dim
	Scales  []float32 // len(Keys)
	Matrix  []float64 // nil or Dim*Dim
	Meta    []byte
	Scorer  *Scorer
}

// Encode serializes b into the on-disk arena image.
func Encode(b *Build) ([]byte, error) {
	n := len(b.Keys)
	if b.Dim <= 0 || b.Dim > maxDim {
		return nil, fmt.Errorf("arena: bad dim %d", b.Dim)
	}
	if n > maxVocab {
		return nil, fmt.Errorf("arena: vocab too large: %d", n)
	}
	if !sort.SliceIsSorted(b.Keys, func(i, j int) bool { return b.Keys[i] < b.Keys[j] }) {
		return nil, fmt.Errorf("arena: keys not sorted")
	}
	for i := 1; i < n; i++ {
		if b.Keys[i-1] == b.Keys[i] {
			return nil, fmt.Errorf("arena: duplicate key %q", b.Keys[i])
		}
	}
	var flags uint32
	switch {
	case b.VecI8 != nil:
		flags |= FlagInt8
		if len(b.VecI8) != n*b.Dim || len(b.Scales) != n {
			return nil, fmt.Errorf("arena: int8 arena shape mismatch: %d vectors dim %d, %d values %d scales",
				n, b.Dim, len(b.VecI8), len(b.Scales))
		}
	case len(b.VecF32) == n*b.Dim:
	default:
		return nil, fmt.Errorf("arena: float32 arena shape mismatch: %d vectors dim %d, %d values",
			n, b.Dim, len(b.VecF32))
	}
	if b.Matrix != nil {
		if len(b.Matrix) != b.Dim*b.Dim {
			return nil, fmt.Errorf("arena: matrix is %d values, want %d", len(b.Matrix), b.Dim*b.Dim)
		}
		flags |= FlagMatrix
	}
	if b.Scorer != nil {
		flags |= FlagScorer
	}

	keyData := make([]byte, 0, 16*n)
	keyOffs := make([]uint32, n+1)
	for i, k := range b.Keys {
		keyOffs[i] = uint32(len(keyData))
		keyData = append(keyData, k...)
	}
	keyOffs[n] = uint32(len(keyData))

	var scorerBlob []byte
	if b.Scorer != nil {
		var err error
		if scorerBlob, err = encodeScorer(b.Scorer); err != nil {
			return nil, err
		}
	}

	var buf bytes.Buffer
	buf.WriteString(Magic)
	le := binary.LittleEndian
	put32 := func(v uint32) { var t [4]byte; le.PutUint32(t[:], v); buf.Write(t[:]) }
	put32(Version)
	put32(flags)
	put32(uint32(b.Dim))
	put32(uint32(b.HashDim))
	put32(uint32(b.NMin))
	put32(uint32(b.NMax))
	put32(uint32(n))
	put32(0) // CRC placeholder, patched below
	buf.Write(make([]byte, 64-buf.Len()))

	type pending struct{ payload []byte }
	secs := make([]pending, sectionN)
	secs[secMeta] = pending{b.Meta}
	secs[secKeyData] = pending{keyData}
	secs[secKeyOffs] = pending{u32Bytes(keyOffs)}
	if flags&FlagInt8 != 0 {
		secs[secVectors] = pending{i8Bytes(b.VecI8)}
		secs[secScales] = pending{f32Bytes(b.Scales)}
	} else {
		secs[secVectors] = pending{f32Bytes(b.VecF32)}
	}
	if b.Matrix != nil {
		secs[secMatrix] = pending{f64Bytes(b.Matrix)}
	}
	secs[secScorer] = pending{scorerBlob}

	// Lay sections out 64-byte aligned and fill the table.
	table := make([]byte, 16*sectionN)
	off := uint64(headerSize)
	var body bytes.Buffer
	for i, s := range secs {
		if len(s.payload) == 0 {
			continue
		}
		if pad := (64 - off%64) % 64; pad != 0 {
			body.Write(make([]byte, pad))
			off += pad
		}
		le.PutUint64(table[16*i:], off)
		le.PutUint64(table[16*i+8:], uint64(len(s.payload)))
		body.Write(s.payload)
		off += uint64(len(s.payload))
	}
	buf.Write(table)
	buf.Write(body.Bytes())

	out := buf.Bytes()
	le.PutUint32(out[36:], crc32.Checksum(out[64:], castagnoli))
	return out, nil
}

// WriteFile encodes b and writes it to path atomically and durably
// (durable.WriteFile). A new arena file is readable by its owner only.
func WriteFile(path string, b *Build) error {
	img, err := Encode(b)
	if err != nil {
		return err
	}
	err = durable.WriteFile(path, 0o600, func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	})
	if err != nil {
		return fmt.Errorf("arena %s: %w", path, err)
	}
	return nil
}

func encodeScorer(s *Scorer) ([]byte, error) {
	if len(s.Layers) == 0 || len(s.Layers) > 64 {
		return nil, fmt.Errorf("arena: scorer has %d layers", len(s.Layers))
	}
	var buf bytes.Buffer
	le := binary.LittleEndian
	put32 := func(v uint32) { var t [4]byte; le.PutUint32(t[:], v); buf.Write(t[:]) }
	put32(uint32(len(s.Layers)))
	for i, l := range s.Layers {
		if l.In <= 0 || l.Out <= 0 || l.InPadded < l.In ||
			len(l.W) != l.Out*l.InPadded || len(l.B) != l.Out || l.Act > ActSigmoid {
			return nil, fmt.Errorf("arena: scorer layer %d malformed", i)
		}
		put32(uint32(l.In))
		put32(uint32(l.Out))
		put32(l.Act)
		put32(uint32(l.InPadded))
	}
	for _, l := range s.Layers {
		buf.Write(f32Bytes(l.W))
		buf.Write(f32Bytes(l.B))
	}
	return buf.Bytes(), nil
}

func u32Bytes(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], x)
	}
	return out
}

func f32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func f64Bytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func i8Bytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}
