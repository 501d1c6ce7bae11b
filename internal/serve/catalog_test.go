package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"hybridmem/internal/tech"
)

// editedCatalog returns the builtin catalog with PCM's write latency
// changed — the minimal "operator edited one number in the catalog file"
// scenario the staleness protection exists for.
func editedCatalog(t *testing.T) *tech.Catalog {
	t.Helper()
	return editCatalog(t, "PCM", tech.ClassNVM, func(pcm *tech.Tech) { pcm.WriteNS = 50 })
}

// editCatalog returns the builtin catalog with entry name (of class) edited.
func editCatalog(t *testing.T, name, class string, edit func(*tech.Tech)) *tech.Catalog {
	t.Helper()
	e := tech.Builtin().MustTech(name)
	edit(&e)
	cat, err := tech.Builtin().WithEntries(tech.Entry{Tech: e, Class: class, Source: "test edit"})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestKeyChangesWithCatalog is the refactor's acceptance assertion: editing
// any catalog value must change the canonical result-cache key of an
// otherwise identical request, so neither the in-memory LRU nor the
// persistent store can ever serve a result computed under different
// technology parameters. The profile key changes only with the entries
// that shape the profiled stream — the SRAM prefix and the reference DRAM —
// so the profile tier never restores a profile built under other ones.
func TestKeyChangesWithCatalog(t *testing.T) {
	mk := func() *EvalRequest {
		return &EvalRequest{Design: DesignSpec{Family: "NMM", Config: "N6", NVM: "PCM"}, Workload: "CG"}
	}
	base := mk()
	if apiErr := base.Normalize(); apiErr != nil {
		t.Fatal(apiErr)
	}
	edited := mk()
	if apiErr := edited.NormalizeWith(editedCatalog(t)); apiErr != nil {
		t.Fatal(apiErr)
	}
	if base.Key() == edited.Key() {
		t.Error("catalog edit did not change the result-cache key")
	}
	if profileKey(base) != profileKey(edited) {
		t.Error("a PCM edit changed the profile key; PCM does not shape the profiled stream")
	}
	for _, c := range []struct{ name, class string }{
		{"SRAM-L1", tech.ClassSRAM}, {"SRAM-L3", tech.ClassSRAM}, {"DRAM", tech.ClassDRAM},
	} {
		r := mk()
		cat := editCatalog(t, c.name, c.class, func(e *tech.Tech) { e.ReadNS *= 2 })
		if apiErr := r.NormalizeWith(cat); apiErr != nil {
			t.Fatal(apiErr)
		}
		if r.Key() == base.Key() {
			t.Errorf("a %s edit did not change the result-cache key", c.name)
		}
		if profileKey(r) == profileKey(base) {
			t.Errorf("a %s edit did not change the profile key", c.name)
		}
	}

	// Same edit expressed as a per-request override: also a different key,
	// and deterministic (two identical requests agree).
	override := mk()
	override.TechOverrides = map[string]TechSpec{
		"PCM": {ReadNS: 21, WriteNS: 50, ReadPJPerBit: 12.4, WritePJPerBit: 210.3, NonVolatile: true},
	}
	if apiErr := override.Normalize(); apiErr != nil {
		t.Fatal(apiErr)
	}
	if override.Key() == base.Key() {
		t.Error("tech override did not change the result-cache key")
	}
	again := mk()
	again.TechOverrides = map[string]TechSpec{
		"PCM": {ReadNS: 21, WriteNS: 50, ReadPJPerBit: 12.4, WritePJPerBit: 210.3, NonVolatile: true},
	}
	if apiErr := again.Normalize(); apiErr != nil {
		t.Fatal(apiErr)
	}
	if override.Key() != again.Key() {
		t.Error("identical overrides produced different keys")
	}
}

// TestCatalogHTTPValidation: catalog-related request defects come back as
// typed 4xx APIErrors with machine-readable field paths, never 500s.
func TestCatalogHTTPValidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name      string
		body      string
		status    int
		wantCode  string
		wantField string
	}{
		{"catalog version mismatch",
			`{"design":"NMM/N6/PCM","workload":"CG","catalog_version":"not-the-one"}`,
			http.StatusBadRequest, CodeCatalogMismatch, "catalog_version"},
		{"override bad latency",
			`{"design":"NMM/N6/PCM","workload":"CG","tech_overrides":{"PCM":{"read_ns":0,"write_ns":50,"read_pj_per_bit":12.4,"write_pj_per_bit":210.3}}}`,
			http.StatusBadRequest, CodeInvalidRequest, "tech_overrides.PCM.read_ns"},
		{"override negative energy",
			`{"design":"NMM/N6/PCM","workload":"CG","tech_overrides":{"PCM":{"read_ns":21,"write_ns":50,"read_pj_per_bit":-1,"write_pj_per_bit":210.3}}}`,
			http.StatusBadRequest, CodeInvalidRequest, "tech_overrides.PCM.read_pj_per_bit"},
		{"new override name needs class",
			`{"design":"NMM/N6/PCM","workload":"CG","tech_overrides":{"ULTRARAM":{"read_ns":5,"write_ns":5,"read_pj_per_bit":1,"write_pj_per_bit":1}}}`,
			http.StatusBadRequest, CodeInvalidRequest, "tech_overrides.ULTRARAM.class"},
		{"unknown nvm name",
			`{"design":"NMM/N6/XPoint","workload":"CG"}`,
			http.StatusBadRequest, CodeUnknownTech, "design.nvm"},
		{"wrong class on nvm axis",
			`{"design":"NMM/N6/eDRAM","workload":"CG"}`,
			http.StatusBadRequest, CodeUnknownTech, "design.nvm"},
		{"wrong class on llc axis",
			`{"design":"4LC/EH4/PCM","workload":"CG"}`,
			http.StatusBadRequest, CodeUnknownTech, "design.llc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, decoded := post(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%v)", resp.StatusCode, tc.status, decoded)
			}
			if code := errorCode(t, decoded); code != tc.wantCode {
				t.Fatalf("code = %q, want %q (%v)", code, tc.wantCode, decoded)
			}
			e, _ := decoded["error"].(map[string]any)
			if field, _ := e["field"].(string); field != tc.wantField {
				t.Fatalf("field = %q, want %q", field, tc.wantField)
			}
		})
	}
}

// TestCatalogPinAccepted: pinning the serving catalog's actual version is
// accepted and evaluates normally.
func TestCatalogPinAccepted(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"design":"4LC/EH4","workload":"CG","scale":%d,"workload_scale":%d,"catalog_version":%q}`,
		testScale, testWScale, tech.Builtin().Version())
	resp, decoded := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%v)", resp.StatusCode, decoded)
	}
}

// TestExtensionTechServable: post-2014 catalog entries are directly usable
// on the NVM axis by name, and their key differs from the paper trio's.
func TestExtensionTechServable(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, decoded := post(t, ts, testBody("NMM/N6/RTM"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%v)", resp.StatusCode, decoded)
	}
	if got := decoded["design"]; got != "NMM/N6/RTM" {
		t.Errorf("design = %v, want NMM/N6/RTM", got)
	}
}

// TestTechOverrideEvaluates: an override both evaluates successfully and
// lands in a different cache entry than the unmodified request; the
// overridden write latency visibly changes the evaluation.
func TestTechOverrideEvaluates(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	base := testBody("NMM/N6/PCM")
	resp1, res1 := post(t, ts, base)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("base status = %d (%v)", resp1.StatusCode, res1)
	}
	overridden := fmt.Sprintf(`{"design":"NMM/N6/PCM","workload":"CG","scale":%d,"workload_scale":%d,
		"tech_overrides":{"PCM":{"read_ns":21,"write_ns":1000,"read_pj_per_bit":12.4,"write_pj_per_bit":210.3,"non_volatile":true}}}`,
		testScale, testWScale)
	resp2, res2 := post(t, ts, overridden)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("override status = %d (%v)", resp2.StatusCode, res2)
	}
	if resp2.Header.Get("X-Memsimd-Cache") != "miss" {
		t.Errorf("override served as %q, want a fresh miss", resp2.Header.Get("X-Memsimd-Cache"))
	}
	if res1["key"] == res2["key"] {
		t.Error("override shares a cache key with the unmodified request")
	}
	m1 := res1["metrics"].(map[string]any)
	m2 := res2["metrics"].(map[string]any)
	if m2["amat_ns"].(float64) <= m1["amat_ns"].(float64) {
		t.Errorf("10x write latency did not raise AMAT: %v -> %v", m1["amat_ns"], m2["amat_ns"])
	}
}

// TestServerCatalogConfig: a server launched with an edited catalog keys
// its results differently from a builtin-catalog server (the warm-restart
// staleness scenario, in-process).
func TestServerCatalogConfig(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	_, _, tsEdited := newTestServer(t, Config{Catalog: editedCatalog(t)})
	body := testBody("NMM/N6/PCM")
	resp1, res1 := post(t, ts, body)
	resp2, res2 := post(t, tsEdited, body)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses = %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if res1["key"] == res2["key"] {
		t.Error("edited-catalog server reused the builtin catalog's cache key")
	}
	if m1, m2 := res1["metrics"].(map[string]any), res2["metrics"].(map[string]any); m1["amat_ns"] == m2["amat_ns"] {
		t.Error("halved PCM write latency left AMAT unchanged")
	}
}

// TestDesignsEndpointExposesCatalog: /v1/designs advertises the serving
// catalog's identity and lists extensions on the NVM axis.
func TestDesignsEndpointExposesCatalog(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	cat, ok := decoded["catalog"].(map[string]any)
	if !ok {
		t.Fatalf("no catalog block in %v", decoded)
	}
	if cat["name"] != tech.Builtin().Name() || cat["version"] != tech.Builtin().Version() || cat["hash"] != tech.Builtin().Hash() {
		t.Errorf("catalog block = %v, want builtin identity", cat)
	}
	hasRTM := false
	for _, v := range decoded["extensions"].([]any) {
		if v == "RTM" {
			hasRTM = true
		}
	}
	if !hasRTM {
		t.Errorf("extensions %v missing RTM", decoded["extensions"])
	}
	nvm := decoded["families"].(map[string]any)["NMM"].(map[string]any)["nvm"].([]any)
	found := map[string]bool{}
	for _, v := range nvm {
		found[v.(string)] = true
	}
	for _, want := range []string{"PCM", "STTRAM", "FeRAM", "RTM", "FeFET"} {
		if !found[want] {
			t.Errorf("NMM nvm axis %v missing %s", nvm, want)
		}
	}
}
