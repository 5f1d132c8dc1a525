package blocking

import (
	"sort"

	"wym/internal/data"
	"wym/internal/textsim"
	"wym/internal/tokenize"
)

// batchCandidates is the reference blocker the Streamer is checked
// against: one resident inverted index over the whole right table, every
// left row probed against it, all candidates materialized and sorted. It
// keeps the original in-memory implementation verbatim, with its own
// tokenizer (a keep-set walked in schema order), so a defect in the
// Streamer's code cannot hide in a shared helper.
func batchCandidates(left, right []data.Entity, cfg Config) ([]Candidate, error) {
	if err := cfg.Validate(numAttrsOf(left, right)); err != nil {
		return nil, err
	}
	if cfg.MinShared == 0 {
		cfg.MinShared = 1
	}
	leftTokens := tokenized(left, cfg.Attrs)
	rightTokens := tokenized(right, cfg.Attrs)

	index := buildIndex(rightTokens)
	maxLeft := int(cfg.MaxDF * float64(len(left)))
	maxRight := int(cfg.MaxDF * float64(len(right)))
	if maxLeft < 1 {
		maxLeft = 1
	}
	if maxRight < 1 {
		maxRight = 1
	}
	dfLeft := batchDocFreq(leftTokens)

	shared := make(map[[2]int]int)
	for li, toks := range leftTokens {
		seen := map[string]bool{}
		for _, t := range toks {
			if seen[t] {
				continue
			}
			seen[t] = true
			if dfLeft[t] > maxLeft {
				continue
			}
			bucket := index[t]
			if len(bucket) > maxRight {
				continue
			}
			for _, ri := range bucket {
				shared[[2]int{li, ri}]++
			}
		}
	}

	var out []Candidate
	for key, n := range shared {
		if n < cfg.MinShared {
			continue
		}
		if cfg.JaccardFloor > 0 {
			if textsim.Jaccard(leftTokens[key[0]], rightTokens[key[1]]) < cfg.JaccardFloor {
				continue
			}
		}
		out = append(out, Candidate{Left: key[0], Right: key[1], Shared: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out, nil
}

// batchSelfCandidates is the reference for Self mode: the table blocked
// against itself, keeping each unordered pair once (Left < Right).
func batchSelfCandidates(table []data.Entity, cfg Config) ([]Candidate, error) {
	raw, err := batchCandidates(table, table, cfg)
	if err != nil {
		return nil, err
	}
	out := raw[:0]
	for _, c := range raw {
		if c.Left < c.Right {
			out = append(out, c)
		}
	}
	return out, nil
}

func tokenized(es []data.Entity, attrs []int) [][]string {
	keep := map[int]bool{}
	for _, a := range attrs {
		keep[a] = true
	}
	out := make([][]string, len(es))
	for i, e := range es {
		var toks []string
		for a, v := range e {
			if len(attrs) > 0 && !keep[a] {
				continue
			}
			toks = append(toks, tokenize.SplitWords(v)...)
		}
		out[i] = toks
	}
	return out
}

func buildIndex(tokens [][]string) map[string][]int {
	index := make(map[string][]int)
	for i, toks := range tokens {
		seen := map[string]bool{}
		for _, t := range toks {
			if seen[t] {
				continue
			}
			seen[t] = true
			index[t] = append(index[t], i)
		}
	}
	return index
}

func batchDocFreq(tokens [][]string) map[string]int {
	df := make(map[string]int)
	for _, toks := range tokens {
		seen := map[string]bool{}
		for _, t := range toks {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	return df
}

// recall computes the fraction of true pairs covered by the candidates.
// truth maps left indices to the matching right indices.
func recall(cands []Candidate, truth map[int][]int) float64 {
	var total, found int
	covered := map[[2]int]bool{}
	for _, c := range cands {
		covered[[2]int{c.Left, c.Right}] = true
	}
	for li, ris := range truth {
		for _, ri := range ris {
			total++
			if covered[[2]int{li, ri}] {
				found++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(found) / float64(total)
}
