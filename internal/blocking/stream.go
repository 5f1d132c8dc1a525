package blocking

import (
	"container/heap"
	"fmt"
	"sort"

	"wym/internal/data"
	"wym/internal/textsim"
	"wym/internal/tokenize"
)

// The Streamer is the package's one candidate generator: Candidates is a
// Streamer over the whole left table as one chunk. It
//
//   - builds the right table's inverted index incrementally and seals a
//     shard whenever the resident index would exceed a configurable
//     memory budget — only one shard's postings are ever live, and the
//     peak resident estimate is tracked and reported;
//   - generates candidates chunk by chunk over the left table, capping
//     each left record at its TopK strongest candidates (most shared
//     tokens, ties to the lowest right index) instead of materializing
//     the cross product.
//
// Because every right record's postings live in exactly one shard, a
// pair's shared-token count is computed entirely when that shard is
// probed: the candidate set is independent of the budget (and therefore
// of how the job is sharded), which is what makes checkpointed match
// jobs byte-reproducible across different machines and interruptions.

// StreamConfig extends Config with the streaming controls.
type StreamConfig struct {
	Config
	// MemoryBudget caps the estimated resident bytes of the inverted
	// index; when adding the next right record would exceed it, the
	// current shard is sealed and a fresh one started. 0 = unlimited
	// (single shard). A single record's postings always fit: the budget
	// bounds the shard at >= one record.
	MemoryBudget int64
	// TopK caps the candidates kept per left record (0 = unlimited).
	// Survivors are the TopK with the most shared tokens; ties keep the
	// lower right index. Dropped candidates are counted as pruned.
	TopK int
	// Self enables dedup mode: left and right are the same table, and
	// only pairs with Left < Right are emitted (no self-pairs, each
	// unordered pair once).
	Self bool
}

// DefaultStreamConfig returns practical streaming defaults: DefaultConfig
// plus a 64 MiB index budget and a top-50 per-record cap.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Config: DefaultConfig(), MemoryBudget: 64 << 20, TopK: 50}
}

// StreamStats summarizes a streamer's work so far.
type StreamStats struct {
	// Shards is the number of index shards built for the most recent
	// chunk (identical across chunks — the shard plan depends only on the
	// right table and the budget).
	Shards int
	// Emitted and Pruned count candidates returned by Chunk and
	// candidates dropped by the TopK cap, across all chunks so far.
	Emitted, Pruned int64
	// PeakIndexBytes is the largest estimated resident index size seen.
	PeakIndexBytes int64
}

// Streamer generates candidates for chunks of a left table against a
// right table under a memory budget. Build one per job with NewStreamer,
// then call Chunk for each left-row range. Not safe for concurrent use.
type Streamer struct {
	cfg      StreamConfig
	left     []data.Entity
	maxLeft  int
	maxRight int
	dfLeft   map[string]int
	dfRight  map[string]int
	// rightTokens caches the tokenized right rows (the tables themselves
	// are already resident; token lists are the same order of memory).
	// Only the inverted index — the structure that is rebuilt per probe
	// and grows with posting lists — is governed by the budget.
	rightTokens [][]string
	stats       StreamStats
}

// NewStreamer validates the configuration, tokenizes the right table
// once, and computes both tables' document frequencies (the MaxDF pruning
// is global, not per chunk). For Self mode pass the same slice as left
// and right.
func NewStreamer(left, right []data.Entity, cfg StreamConfig) (*Streamer, error) {
	if err := cfg.Validate(numAttrsOf(left, right)); err != nil {
		return nil, err
	}
	if cfg.MinShared == 0 {
		cfg.MinShared = 1
	}
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("%w: negative MemoryBudget %d", ErrInvalidConfig, cfg.MemoryBudget)
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("%w: negative TopK %d", ErrInvalidConfig, cfg.TopK)
	}
	s := &Streamer{cfg: cfg, left: left}
	s.rightTokens = make([][]string, len(right))
	for i, e := range right {
		s.rightTokens[i] = entityTokens(e, cfg.Attrs)
	}
	s.dfRight = docFreq(len(right), func(i int) []string { return s.rightTokens[i] })
	if cfg.Self {
		s.dfLeft = s.dfRight
	} else {
		s.dfLeft = docFreq(len(left), func(i int) []string { return entityTokens(left[i], cfg.Attrs) })
	}
	s.maxLeft = dfCap(cfg.MaxDF, len(left))
	s.maxRight = dfCap(cfg.MaxDF, len(right))
	return s, nil
}

// docFreq counts, per token, the rows among the first n whose token list
// (tokens(i)) contains it.
func docFreq(n int, tokens func(i int) []string) map[string]int {
	df := make(map[string]int)
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		clear(seen)
		for _, t := range tokens(i) {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	return df
}

// dfCap converts a document-frequency fraction into an absolute cap with
// a floor of 1.
func dfCap(maxDF float64, n int) int {
	cap := int(maxDF * float64(n))
	if cap < 1 {
		cap = 1
	}
	return cap
}

// entityTokens tokenizes one entity restricted to the configured
// attributes, in the order Attrs lists them.
func entityTokens(e data.Entity, attrs []int) []string {
	if len(attrs) == 0 {
		var toks []string
		for _, v := range e {
			toks = append(toks, tokenize.SplitWords(v)...)
		}
		return toks
	}
	var toks []string
	for _, a := range attrs {
		if a < len(e) {
			toks = append(toks, tokenize.SplitWords(e[a])...)
		}
	}
	return toks
}

// Stats returns the cumulative streaming statistics.
func (s *Streamer) Stats() StreamStats { return s.stats }

// shardIndex is one resident inverted-index shard over a contiguous run
// of right rows, with its estimated byte footprint.
type shardIndex struct {
	postings map[string][]int
	bytes    int64
}

// Per-entry cost estimates for the resident index: a map entry with a
// string key (header + bucket overhead) and one int per posting.
const (
	tokenEntryBytes = 64 // string header + map bucket amortized
	postingBytes    = 8
)

// rowIndexBytes estimates the index growth of adding one right row: its
// new tokens' entries plus one posting per unique indexable token.
func (s *Streamer) rowIndexBytes(sh *shardIndex, toks []string, seen map[string]bool) int64 {
	clear(seen)
	var b int64
	for _, t := range toks {
		if seen[t] || s.dfRight[t] > s.maxRight {
			continue
		}
		seen[t] = true
		if _, ok := sh.postings[t]; !ok {
			b += tokenEntryBytes + int64(len(t))
		}
		b += postingBytes
	}
	return b
}

// addRow inserts one right row's postings into the shard.
func (s *Streamer) addRow(sh *shardIndex, ri int, toks []string, seen map[string]bool) {
	clear(seen)
	for _, t := range toks {
		if seen[t] || s.dfRight[t] > s.maxRight {
			continue
		}
		seen[t] = true
		sh.postings[t] = append(sh.postings[t], ri)
	}
}

// CandidateStream is one chunk's candidates in (Left, Right) order. Its
// size is bounded by chunkRows x TopK survivors, never the cross product.
type CandidateStream []Candidate

// Next pops the next candidate, or returns false when the chunk is
// drained.
func (cs *CandidateStream) Next() (Candidate, bool) {
	if len(*cs) == 0 {
		return Candidate{}, false
	}
	c := (*cs)[0]
	*cs = (*cs)[1:]
	return c, true
}

// Chunk generates the candidates for left rows [start, end). Candidate
// indices are global: Left in [start, end),
// Right into the full right table. The right table is scanned shard by
// shard under the memory budget; per-left-record TopK heaps accumulate
// across shards, so the resident state never exceeds the sealed shard
// plus chunkRows x TopK survivors.
func (s *Streamer) Chunk(start, end int) (CandidateStream, error) {
	if start < 0 || end < start || end > len(s.left) {
		return nil, fmt.Errorf("blocking: chunk [%d,%d) out of range for %d left rows", start, end, len(s.left))
	}
	rows := end - start
	leftTokens := make([][]string, rows)
	for i := 0; i < rows; i++ {
		leftTokens[i] = entityTokens(s.left[start+i], s.cfg.Attrs)
	}
	heaps := make([]candHeap, rows)

	seen := map[string]bool{}
	shards := 0
	probe := func(sh *shardIndex) {
		shards++
		if sh.bytes > s.stats.PeakIndexBytes {
			s.stats.PeakIndexBytes = sh.bytes
		}
		s.probeShard(sh, start, leftTokens, heaps, seen)
	}

	sh := &shardIndex{postings: map[string][]int{}}
	for ri, toks := range s.rightTokens {
		rb := s.rowIndexBytes(sh, toks, seen)
		if s.cfg.MemoryBudget > 0 && sh.bytes > 0 && sh.bytes+rb > s.cfg.MemoryBudget {
			probe(sh)
			sh = &shardIndex{postings: map[string][]int{}}
			rb = s.rowIndexBytes(sh, toks, seen)
		}
		s.addRow(sh, ri, toks, seen)
		sh.bytes += rb
	}
	if len(sh.postings) > 0 || shards == 0 {
		probe(sh)
	}
	s.stats.Shards = shards

	var out CandidateStream
	for i := range heaps {
		from := len(out)
		out = append(out, heaps[i]...)
		sort.Slice(out[from:], func(a, b int) bool { return out[from+a].Right < out[from+b].Right })
	}
	s.stats.Emitted += int64(len(out))
	return out, nil
}

// probeShard runs every chunk row against one resident shard, applying
// MinShared, the Jaccard floor, Self filtering, and the TopK cap.
func (s *Streamer) probeShard(sh *shardIndex, start int, leftTokens [][]string, heaps []candHeap, seen map[string]bool) {
	shared := map[int]int{}
	for i, toks := range leftTokens {
		li := start + i
		clear(shared)
		clear(seen)
		for _, t := range toks {
			if seen[t] {
				continue
			}
			seen[t] = true
			if s.dfLeft[t] > s.maxLeft {
				continue
			}
			for _, ri := range sh.postings[t] {
				shared[ri]++
			}
		}
		// Deterministic probe order: right indices ascending, so the
		// TopK tie-break (first arrival wins on equal Shared) is stable.
		ris := make([]int, 0, len(shared))
		for ri := range shared {
			ris = append(ris, ri)
		}
		sort.Ints(ris)
		for _, ri := range ris {
			n := shared[ri]
			if n < s.cfg.MinShared {
				continue
			}
			if s.cfg.Self && li >= ri {
				continue
			}
			if s.cfg.JaccardFloor > 0 &&
				textsim.Jaccard(toks, s.rightTokens[ri]) < s.cfg.JaccardFloor {
				continue
			}
			s.push(&heaps[i], Candidate{Left: li, Right: ri, Shared: n})
		}
	}
}

// push offers a candidate to one left record's TopK heap, counting
// rejections and displacements as pruned.
func (s *Streamer) push(h *candHeap, c Candidate) {
	if s.cfg.TopK == 0 {
		*h = append(*h, c)
		return
	}
	if len(*h) < s.cfg.TopK {
		heap.Push(h, c)
		return
	}
	// Root is the weakest survivor: fewest shared tokens, highest right
	// index among equals. A newcomer must strictly beat it.
	root := (*h)[0]
	if c.Shared > root.Shared || (c.Shared == root.Shared && c.Right < root.Right) {
		(*h)[0] = c
		heap.Fix(h, 0)
		s.stats.Pruned++
		return
	}
	s.stats.Pruned++
}

// candHeap is a min-heap ordered worst-first: fewest shared tokens, and
// among equals the highest right index, so the weakest candidate sits at
// the root ready to be displaced.
type candHeap []Candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(a, b int) bool {
	if h[a].Shared != h[b].Shared {
		return h[a].Shared < h[b].Shared
	}
	return h[a].Right > h[b].Right
}
func (h candHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(Candidate)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
