package blocking

import (
	"container/heap"
	"errors"
	"fmt"
	"testing"

	"wym/internal/data"
	"wym/internal/datagen"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"MaxDF zero", func(c *Config) { c.MaxDF = 0 }},
		{"MaxDF negative", func(c *Config) { c.MaxDF = -0.5 }},
		{"MaxDF above one", func(c *Config) { c.MaxDF = 1.5 }},
		{"negative MinShared", func(c *Config) { c.MinShared = -1 }},
		{"negative JaccardFloor", func(c *Config) { c.JaccardFloor = -0.1 }},
		{"JaccardFloor above one", func(c *Config) { c.JaccardFloor = 1.1 }},
		{"negative attr", func(c *Config) { c.Attrs = []int{-1} }},
		{"attr out of range", func(c *Config) { c.Attrs = []int{2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate(2)
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate = %v, want ErrInvalidConfig", err)
			}
			// The batch entry point must surface the same rejection
			// instead of silently producing an empty candidate set.
			left := []data.Entity{{"a", "b"}}
			if _, err := Candidates(left, left, cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Candidates = %v, want ErrInvalidConfig", err)
			}
		})
	}
	if err := DefaultConfig().Validate(2); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// With an unknown attribute count the Attrs range check is skipped
	// but negative indices are still rejected.
	cfg := DefaultConfig()
	cfg.Attrs = []int{7}
	if err := cfg.Validate(0); err != nil {
		t.Fatalf("attrs with unknown arity rejected: %v", err)
	}
}

// drain pulls every candidate out of a stream through Next.
func drain(t *testing.T, cs CandidateStream) []Candidate {
	t.Helper()
	var out []Candidate
	for {
		c, ok := cs.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

// streamAll runs the streamer over the whole left table in chunks of the
// given size and concatenates the candidates.
func streamAll(t *testing.T, s *Streamer, leftRows, chunk int) []Candidate {
	t.Helper()
	var out []Candidate
	for start := 0; start < leftRows; start += chunk {
		end := start + chunk
		if end > leftRows {
			end = leftRows
		}
		cs, err := s.Chunk(start, end)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, drain(t, cs)...)
	}
	return out
}

// sameCandidates fails the test unless got equals want element for
// element.
func sameCandidates(t *testing.T, what string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestStreamMatchesBatch pins the central invariant: with no TopK cap,
// the Streamer emits exactly the reference blocker's candidates
// (batchCandidates), regardless of the memory budget (shard count) and
// chunk size, and so does Candidates, the one-chunk stream. The cases
// cover Self mode against the reference filtered to Left < Right, Attrs
// lists that the two tokenizers walk differently (reordered, repeated),
// and a Jaccard floor.
func TestStreamMatchesBatch(t *testing.T) {
	left, right, _ := tables(40, 160)
	base := DefaultConfig()
	base.MaxDF = 0.2
	with := func(mut func(*Config)) Config {
		cfg := base
		mut(&cfg)
		return cfg
	}
	jaccard := with(func(c *Config) { c.JaccardFloor = 0.2 })
	cases := []struct {
		name string
		cfg  Config
		self bool
	}{
		{"default", base, false},
		{"self", base, true},
		{"attrs 1,0", with(func(c *Config) { c.Attrs = []int{1, 0} }), false},
		{"attrs 0,0", with(func(c *Config) { c.Attrs = []int{0, 0} }), false},
		{"attrs 1,0,1", with(func(c *Config) { c.Attrs = []int{1, 0, 1} }), false},
		{"jaccard", jaccard, false},
		{"self jaccard", jaccard, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := right
			want, err := batchCandidates(left, r, tc.cfg)
			if tc.self {
				r = left
				want, err = batchSelfCandidates(left, tc.cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("reference produced no candidates; test tables broken")
			}
			if !tc.self {
				sameCandidates(t, "Candidates", mustCandidates(t, left, r, tc.cfg), want)
			}
			for _, budget := range []int64{0, 1 << 12, 1 << 16} {
				for _, chunk := range []int{7, 50, len(left)} {
					s, err := NewStreamer(left, r, StreamConfig{Config: tc.cfg, MemoryBudget: budget, Self: tc.self})
					if err != nil {
						t.Fatal(err)
					}
					got := streamAll(t, s, len(left), chunk)
					sameCandidates(t, fmt.Sprintf("budget %d chunk %d", budget, chunk), got, want)
					if budget > 0 && s.Stats().PeakIndexBytes > budget {
						t.Fatalf("peak index %d exceeds budget %d", s.Stats().PeakIndexBytes, budget)
					}
				}
			}
		})
	}
}

// TestStreamHonorsMemoryBudget asserts the resident index estimate stays
// under a tight budget that forces many shards.
func TestStreamHonorsMemoryBudget(t *testing.T) {
	left, right, truth := tables(60, 300)
	const budget = 8 << 10
	s, err := NewStreamer(left, right, StreamConfig{
		Config: Config{MaxDF: 0.2, MinShared: 1}, MemoryBudget: budget, TopK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, s, len(left), 25)
	st := s.Stats()
	if st.Shards < 2 {
		t.Fatalf("budget %d built only %d shard(s); too loose to test", budget, st.Shards)
	}
	if st.PeakIndexBytes > budget {
		t.Fatalf("peak index %d bytes exceeds budget %d", st.PeakIndexBytes, budget)
	}
	if r := recall(got, truth); r < 0.95 {
		t.Fatalf("sharded streaming recall = %v, want >= 0.95", r)
	}
}

func TestStreamTopKCapsAndPrunes(t *testing.T) {
	// One left record sharing tokens with many right records: TopK must
	// keep the strongest (most shared tokens, ties to lowest index).
	left := []data.Entity{{"alpha beta gamma delta"}}
	var right []data.Entity
	right = append(right, data.Entity{"alpha beta gamma"}) // 3 shared
	right = append(right, data.Entity{"alpha beta"})       // 2 shared
	for i := 0; i < 6; i++ {
		right = append(right, data.Entity{fmt.Sprintf("alpha filler%d", i)}) // 1 shared
	}
	s, err := NewStreamer(left, right, StreamConfig{
		Config: Config{MaxDF: 1.0}, TopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Chunk(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cs)
	if len(got) != 3 {
		t.Fatalf("TopK=3 emitted %d candidates: %+v", len(got), got)
	}
	// Survivors: rights 0 (3 shared), 1 (2 shared), 2 (first 1-shared).
	want := []Candidate{{0, 0, 3}, {0, 1, 2}, {0, 2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Stats().Pruned != 5 {
		t.Fatalf("pruned = %d, want 5", s.Stats().Pruned)
	}
	if s.Stats().Emitted != 3 {
		t.Fatalf("emitted = %d, want 3", s.Stats().Emitted)
	}
}

func TestStreamSelfMode(t *testing.T) {
	table := []data.Entity{
		{"digital camera x100", "fuji"},
		{"digital camera x-100", "fuji"},
		{"espresso maker", "delonghi"},
		{"digital camera x100 pro", "fuji"},
	}
	s, err := NewStreamer(table, table, StreamConfig{
		Config: Config{MaxDF: 1.0}, Self: true, MemoryBudget: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, s, len(table), 2)
	if len(got) == 0 {
		t.Fatal("self mode produced no candidates")
	}
	seen := map[[2]int]bool{}
	for _, c := range got {
		if c.Left >= c.Right {
			t.Fatalf("self-pair or duplicate orientation: %+v", c)
		}
		key := [2]int{c.Left, c.Right}
		if seen[key] {
			t.Fatalf("pair %v emitted twice", key)
		}
		seen[key] = true
	}
	if !seen[[2]int{0, 1}] {
		t.Fatalf("duplicate cameras not candidates: %+v", got)
	}
}

func TestStreamChunkRange(t *testing.T) {
	left := []data.Entity{{"a"}}
	s, err := NewStreamer(left, left, StreamConfig{Config: Config{MaxDF: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 0}, {0, 2}, {1, 0}} {
		if _, err := s.Chunk(r[0], r[1]); err == nil {
			t.Fatalf("chunk %v accepted", r)
		}
	}
}

func TestStreamerRejectsBadConfig(t *testing.T) {
	left := []data.Entity{{"a"}}
	bad := []StreamConfig{
		{Config: Config{MaxDF: -1}},
		{Config: Config{MaxDF: 0.5}, MemoryBudget: -1},
		{Config: Config{MaxDF: 0.5}, TopK: -2},
	}
	for i, cfg := range bad {
		if _, err := NewStreamer(left, left, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("case %d: err = %v, want ErrInvalidConfig", i, err)
		}
	}
}

// TestStreamRecallOnDatagenTables is the blocking-quality gate on the
// synthetic e2e tables: recall of blocking >= 0.95 under a budget that
// forces sharding.
func TestStreamRecallOnDatagenTables(t *testing.T) {
	p, _ := datagen.ProfileByKey("S-FZ")
	tp := datagen.GenerateTables(p, 800, 0.3)
	truth := map[int][]int{}
	for _, pr := range tp.Truth {
		truth[pr[0]] = append(truth[pr[0]], pr[1])
	}
	cfg := DefaultStreamConfig()
	cfg.MaxDF = 0.05
	cfg.MemoryBudget = 32 << 10
	s, err := NewStreamer(tp.Left, tp.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, s, len(tp.Left), 100)
	if r := recall(got, truth); r < 0.95 {
		t.Fatalf("recall of blocking on datagen tables = %v, want >= 0.95", r)
	}
	if st := s.Stats(); st.PeakIndexBytes > cfg.MemoryBudget {
		t.Fatalf("peak index %d exceeds budget %d", st.PeakIndexBytes, cfg.MemoryBudget)
	}
}

// TestStreamAttrsSubset restricts blocking to one attribute and checks
// the stream agrees with the reference under the restriction — tokens in
// the excluded attribute must not create candidates.
func TestStreamAttrsSubset(t *testing.T) {
	left := []data.Entity{{"shared alpha", "only-left-one"}, {"unique beta", "shared-tail"}}
	right := []data.Entity{{"shared alpha", "different"}, {"gamma delta", "shared-tail"}}
	cfg := DefaultConfig()
	cfg.MaxDF = 1.0
	cfg.Attrs = []int{0}
	want, err := batchCandidates(left, right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0].Left != 0 || want[0].Right != 0 {
		t.Fatalf("attr-0 reference candidates = %+v", want)
	}
	s, err := NewStreamer(left, right, StreamConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, s, len(left), 1)
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("attr-0 stream candidates = %+v, want %+v", got, want)
	}
}

// TestCandHeapOrdering drives the top-k heap through the container/heap
// contract directly: pops come out worst-first — fewest shared tokens,
// ties broken toward the higher right index.
func TestCandHeapOrdering(t *testing.T) {
	h := &candHeap{}
	heap.Init(h)
	for _, c := range []Candidate{
		{Left: 0, Right: 3, Shared: 5},
		{Left: 0, Right: 1, Shared: 2},
		{Left: 0, Right: 2, Shared: 2},
		{Left: 0, Right: 0, Shared: 9},
	} {
		heap.Push(h, c)
	}
	want := []Candidate{
		{Left: 0, Right: 2, Shared: 2},
		{Left: 0, Right: 1, Shared: 2},
		{Left: 0, Right: 3, Shared: 5},
		{Left: 0, Right: 0, Shared: 9},
	}
	for i, w := range want {
		if got := heap.Pop(h).(Candidate); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}
