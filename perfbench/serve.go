package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"wym/internal/data"
)

// Routes the load generator sends.
const (
	routePredict  = "/predict"
	routeExplain  = "/explain"
	routeBatch    = "/predict/batch"
	routeFeedback = "/admin/feedback"
)

// Response bodies, decoded for the correctness checks.
type predictResp struct {
	Match       bool    `json:"match"`
	Probability float64 `json:"probability"`
}

type unitResp struct {
	Left      string  `json:"left"`
	Right     string  `json:"right"`
	Attribute string  `json:"attribute"`
	Relevance float64 `json:"relevance"`
	Impact    float64 `json:"impact"`
}

type explainResp struct {
	Match       bool       `json:"match"`
	Probability float64    `json:"probability"`
	Units       []unitResp `json:"units"`
}

type batchResp struct {
	Results []struct {
		Match *bool  `json:"match"`
		Error string `json:"error"`
	} `json:"results"`
	Errors int `json:"errors"`
}

// pick maps (seed, i) to a pool index with a splitmix64 step, so the
// request sequence depends only on the seed.
func pick(seed int64, i, n int) int {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// decisions decodes the served match decisions of the successful samples
// as (pool index, decision) pairs; batch items count one each. A batch
// item error is returned as an error count.
func decisions(ss []sample, poolSize int) (idx []int, match []bool, itemErrors int, err error) {
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		switch s.op.route {
		case routePredict, routeExplain:
			var p predictResp
			if err := json.Unmarshal(s.body, &p); err != nil {
				return nil, nil, 0, fmt.Errorf("%s response: %w", s.op.route, err)
			}
			idx, match = append(idx, s.op.pair), append(match, p.Match)
		case routeBatch:
			var b batchResp
			if err := json.Unmarshal(s.body, &b); err != nil {
				return nil, nil, 0, fmt.Errorf("batch response: %w", err)
			}
			itemErrors += b.Errors
			for k, it := range b.Results {
				if it.Match != nil {
					idx, match = append(idx, (s.op.pair+k)%poolSize), append(match, *it.Match)
				}
			}
		}
	}
	return idx, match, itemErrors, nil
}

// servedF1 scores served decisions against the pool's labels.
func servedF1(pool []data.Pair, idx []int, match []bool) float64 {
	truth := make([]bool, len(idx))
	for k, i := range idx {
		truth[k] = pool[i].Label == data.Match
	}
	return labelF1(match, truth)
}

// scrape reads the server's metrics registry and sums each family's
// counter and gauge series.
func scrape(srv *server) (map[string]float64, error) {
	resp, err := http.Get(srv.admin + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var fams []struct {
		Name   string `json:"name"`
		Series []struct {
			Value *float64 `json:"value"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &fams); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := make(map[string]float64, len(fams))
	for _, f := range fams {
		for _, s := range f.Series {
			if s.Value != nil {
				out[f.Name] += *s.Value
			}
		}
	}
	return out, nil
}

// warm sends n requests sequentially before timing starts, so lazy
// set-up (connections, caches) is done when the clock starts.
func (r *run) warm(c *client, n int, next func(i int) *op) {
	ss := make([]sample, n)
	for i := range ss {
		ss[i] = c.send(next(i))
	}
	r.tally.add("warmup", ss)
}

// serveLayers reports the serving-layer numbers of a traced run:
// the HTTP overhead over the in-process path and the shed count.
func (r *run) serveLayers(metrics map[string]float64, clientP50Ms, inProcessUs float64) {
	r.put("serve.http_overhead_us", "us", clientP50Ms*1e3-inProcessUs)
	r.put("serve.shed_total", "count", metrics["wym_server_shed_total"])
}

// loadgenLayers reports the generator's timed-phase counts per route for
// a traced run.
func (r *run) loadgenLayers() {
	for key, c := range r.tally {
		route, timed := strings.CutPrefix(key, "timed ")
		if !timed {
			continue
		}
		name := "loadgen." + strings.ReplaceAll(strings.TrimPrefix(route, "/"), "/", "_")
		r.put(name+".sent", "count", float64(c[0]))
		r.put(name+".ok", "count", float64(c[1]))
		r.put(name+".failed", "count", float64(c[2]))
	}
}
