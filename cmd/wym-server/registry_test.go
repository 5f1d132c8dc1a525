package main

// Tests for the multi-model registry: named-model routes, admin
// load/unload, readyz model reporting, and the LRU bytes budget.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wym"
	"wym/internal/obs"
)

// loadModel loads the artifact under name through the admin route and
// fails the test on a non-2xx answer.
func loadModel(t *testing.T, srv *httptest.Server, name, path string) {
	t.Helper()
	resp := post(t, srv.URL+"/admin/models/"+name+"/load", reloadRequest{Path: path})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("load %s: status = %d, body %s", name, resp.StatusCode, body)
	}
}

func TestModelScopedPredict(t *testing.T) {
	srv, _ := server(t)
	defer srv.Close()
	loadModel(t, srv, "alt", savedModel(t))

	for _, name := range []string{"default", "alt"} {
		resp, err := http.Post(srv.URL+"/models/"+name+"/predict",
			"application/json", strings.NewReader(goodBody(t)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %s predict status = %d, body %s", name, resp.StatusCode, body)
		}
		var out struct {
			Match       *bool   `json:"match"`
			Probability float64 `json:"probability"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.Match == nil {
			t.Fatalf("model %s predict body %s (err %v)", name, body, err)
		}
	}

	// The scoped batch and explain routes resolve the same way.
	pair := json.RawMessage(goodBody(t))
	resp := post(t, srv.URL+"/models/alt/predict/batch",
		map[string]any{"pairs": []json.RawMessage{pair, pair}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scoped batch status = %d", resp.StatusCode)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("scoped batch results = %d (err %v), want 2", len(batch.Results), err)
	}
}

func TestModelScopedUnknownModelIs404(t *testing.T) {
	srv, _ := server(t)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/models/nope/predict",
		"application/json", strings.NewReader(goodBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("unknown model")) {
		t.Fatalf("unknown model body %s should name the problem", body)
	}
}

func TestAdminModelLoadValidation(t *testing.T) {
	srv, _ := server(t)
	defer srv.Close()

	// Missing path.
	resp := post(t, srv.URL+"/admin/models/alt/load", map[string]any{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty path status = %d, want 400", resp.StatusCode)
	}
	// Bad artifact path: load fails, registry unchanged.
	resp = post(t, srv.URL+"/admin/models/alt/load", reloadRequest{Path: "/nonexistent/m.gob"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad path status = %d, want 500", resp.StatusCode)
	}
	r2, err := http.Post(srv.URL+"/models/alt/predict",
		"application/json", strings.NewReader(goodBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("failed load left a resident model (predict status %d)", r2.StatusCode)
	}
}

func TestAdminModelUnload(t *testing.T) {
	srv, _ := server(t)
	defer srv.Close()
	loadModel(t, srv, "alt", savedModel(t))

	del := func(name string) int {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/admin/models/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := del("alt"); got != http.StatusOK {
		t.Fatalf("unload alt status = %d, want 200", got)
	}
	if got := del("alt"); got != http.StatusNotFound {
		t.Fatalf("unload of absent model status = %d, want 404", got)
	}
	if got := del("default"); got != http.StatusBadRequest {
		t.Fatalf("unload of pinned default status = %d, want 400", got)
	}
	resp, err := http.Post(srv.URL+"/models/alt/predict",
		"application/json", strings.NewReader(goodBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after unload status = %d, want 404", resp.StatusCode)
	}
}

func TestReadyzReportsResidentModels(t *testing.T) {
	srv, _ := server(t)
	defer srv.Close()
	loadModel(t, srv, "alt", savedModel(t))

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Status string        `json:"status"`
		Models []modelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if len(ready.Models) != 2 {
		t.Fatalf("readyz models = %+v, want default and alt", ready.Models)
	}
	// Sorted by name: alt before default.
	if ready.Models[0].Name != "alt" || ready.Models[1].Name != "default" {
		t.Fatalf("readyz model names = %q, %q", ready.Models[0].Name, ready.Models[1].Name)
	}
	alt := ready.Models[0]
	if alt.Format == "" {
		t.Fatal("readyz model entry has no format")
	}
	if !strings.HasPrefix(alt.Fingerprint, "fnv64:") {
		t.Fatalf("readyz fingerprint = %q, want an fnv64 hash", alt.Fingerprint)
	}
}

func TestModelsListingAndHotReloadBumpsReloads(t *testing.T) {
	srv, _ := server(t)
	defer srv.Close()
	path := savedModel(t)
	loadModel(t, srv, "alt", path)
	loadModel(t, srv, "alt", path) // hot reload of the same name

	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []modelStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("GET /models = %+v, want 2 entries", list)
	}
	if list[0].Name != "alt" || list[0].Reloads != 2 {
		t.Fatalf("alt entry = %+v, want 2 reloads", list[0])
	}
	if list[0].Path != path {
		t.Fatalf("alt path = %q, want %q", list[0].Path, path)
	}
}

// gobAndArenaApp saves the shared trained system as a gob and a float32
// arena artifact and starts an app whose default model is the gob.
func gobAndArenaApp(t *testing.T, reg *obs.Registry) (a *app, gobPath, arenaPath string) {
	t.Helper()
	sys := trained(t)
	dir := t.TempDir()
	gobPath = filepath.Join(dir, "m.gob")
	arenaPath = filepath.Join(dir, "m.wyma")
	if err := sys.SaveFile(gobPath); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveArenaFile(arenaPath, wym.ArenaOptions{}); err != nil {
		t.Fatal(err)
	}
	first, err := wym.LoadSystem(gobPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := quietOptions()
	opts.registry = reg
	a, err = newApp(first, gobPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, gobPath, arenaPath
}

// TestReloadInPlaceAfterDefaultModelLoad: loading "default" through
// /admin/models/default/load is a reload, and a later reload in place
// (SIGHUP, or /admin/reload with no body) reloads that artifact instead
// of reverting to the startup one.
func TestReloadInPlaceAfterDefaultModelLoad(t *testing.T) {
	a, _, arenaPath := gobAndArenaApp(t, nil)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	loadModel(t, srv, defaultModelName, arenaPath)
	if got := a.Reloads(); got != 1 {
		t.Errorf("reloads after loading the default model = %d, want 1", got)
	}
	path, err := a.reload("")
	if err != nil {
		t.Fatal(err)
	}
	if path != arenaPath {
		t.Fatalf("reload in place used %s, want %s", path, arenaPath)
	}
	if f := a.ref.Get().Format(); f != "arena-f32" {
		t.Fatalf("default model format after reload in place = %s, want arena-f32", f)
	}
	if got := a.Reloads(); got != 2 {
		t.Fatalf("reloads = %d, want 2", got)
	}
}

// TestModelFormatGaugeFollowsDefaultModel: loading a named model of
// another format leaves wym_server_model_format on the format /predict
// still serves.
func TestModelFormatGaugeFollowsDefaultModel(t *testing.T) {
	reg := obs.NewRegistry()
	a, _, arenaPath := gobAndArenaApp(t, reg)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	loadModel(t, srv, "alt", arenaPath)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scraped := buf.String()
	if !strings.Contains(scraped, `wym_server_model_format{format="gob"} 1`) ||
		strings.Contains(scraped, `wym_server_model_format{format="arena-f32"} 1`) {
		t.Fatalf("format gauge does not follow the default (gob) model:\n%s", scraped)
	}
	if !strings.Contains(scraped, `wym_server_model_load_seconds_count{format="arena-f32"} 1`) {
		t.Fatalf("named arena load not timed:\n%s", scraped)
	}
}

func TestValidModelName(t *testing.T) {
	for _, name := range []string{"a", "default", "v2.1_prod-eu"} {
		if err := validModelName(name); err != nil {
			t.Fatalf("validModelName(%q) = %v, want nil", name, err)
		}
	}
	bad := []string{"", "a/b", `a\b`, "a b", "a\tb", "a\nb", strings.Repeat("x", 129)}
	for _, name := range bad {
		if err := validModelName(name); err == nil {
			t.Fatalf("validModelName(%q) accepted a bad name", name)
		}
	}
}

func TestRegistryEvictsLRUOverBytesBudget(t *testing.T) {
	path := savedModel(t)
	size := fileBytes(path)
	if size <= 0 {
		t.Fatalf("savedModel size = %d", size)
	}

	// Budget fits the default plus two extras, not three.
	reg := newModelRegistry(3*size, nil, nil)
	clock := time.Unix(1000, 0)
	reg.now = func() time.Time { clock = clock.Add(time.Second); return clock }

	sys := trained(t)
	reg.Install(defaultModelName, path, sys)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := reg.Load(name, path); err != nil {
			t.Fatal(err)
		}
	}
	// "a" is the least recently used extra; loading "c" evicted it.
	if reg.Get("a") != nil {
		t.Fatal("LRU model survived past the bytes budget")
	}
	for _, name := range []string{defaultModelName, "b", "c"} {
		if reg.Get(name) == nil {
			t.Fatalf("model %s was evicted, want resident", name)
		}
	}

	// Touching "b" then loading "d" makes "c" the LRU victim.
	reg.Get("b").touch(reg.now())
	if _, err := reg.Load("d", path); err != nil {
		t.Fatal(err)
	}
	if reg.Get("c") != nil {
		t.Fatal("recently-touched model evicted before the LRU one")
	}
	if reg.Get("b") == nil || reg.Get("d") == nil {
		t.Fatal("eviction removed the wrong model")
	}
	// The pinned default never goes, even under an impossible budget.
	reg.maxBytes = 1
	if _, err := reg.Load("e", path); err != nil {
		t.Fatal(err)
	}
	if reg.Get(defaultModelName) == nil {
		t.Fatal("default model was evicted")
	}
	if reg.Get("e") == nil {
		t.Fatal("just-loaded model was evicted by its own load")
	}
	if got := len(reg.List()); got != 2 {
		t.Fatalf("registry holds %d models under a 1-byte budget, want default + newest", got)
	}
}
