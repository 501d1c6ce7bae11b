package serve

import (
	"encoding/json"
	"testing"
)

// norm decodes and normalizes a request body, failing the test on error.
func norm(t *testing.T, body string) *EvalRequest {
	t.Helper()
	var r EvalRequest
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if apiErr := r.Normalize(); apiErr != nil {
		t.Fatalf("normalize %s: %v", body, apiErr)
	}
	return &r
}

func TestDesignPathParsing(t *testing.T) {
	cases := []struct {
		path string
		want DesignSpec
	}{
		{"reference", DesignSpec{Family: "reference"}},
		{"4LC/EH4", DesignSpec{Family: "4LC", Config: "EH4", LLC: "eDRAM"}},
		{"4LC/EH4/HMC", DesignSpec{Family: "4LC", Config: "EH4", LLC: "HMC"}},
		{"NMM/N6", DesignSpec{Family: "NMM", Config: "N6", NVM: "PCM"}},
		{"NMM/N6/STTRAM", DesignSpec{Family: "NMM", Config: "N6", NVM: "STTRAM"}},
		{"4LCNVM/EH4", DesignSpec{Family: "4LCNVM", Config: "EH4", LLC: "eDRAM", NVM: "PCM"}},
		{"4LCNVM/EH4/HMC/FeRAM", DesignSpec{Family: "4LCNVM", Config: "EH4", LLC: "HMC", NVM: "FeRAM"}},
	}
	for _, tc := range cases {
		r := norm(t, `{"design":"`+tc.path+`","workload":"CG"}`)
		if r.Design != tc.want {
			t.Errorf("%s parsed to %+v, want %+v", tc.path, r.Design, tc.want)
		}
	}
}

func TestKeyStableAcrossSpellings(t *testing.T) {
	a := norm(t, `{"design":"NMM/N6","workload":"CG"}`)
	b := norm(t, `{"design":{"family":"NMM","config":"N6","nvm":"PCM"},"workload":"CG","scale":32}`)
	if a.Key() != b.Key() {
		t.Fatalf("equivalent requests hash differently:\n%s\n%s", a.Key(), b.Key())
	}
	// Metric selection must not split the cache.
	c := norm(t, `{"design":"NMM/N6","workload":"CG","metrics":["edp"]}`)
	if a.Key() != c.Key() {
		t.Fatal("metric filter changed the cache key")
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	base := norm(t, `{"design":"NMM/N6","workload":"CG"}`)
	for name, body := range map[string]string{
		"different config":   `{"design":"NMM/N7","workload":"CG"}`,
		"different nvm":      `{"design":"NMM/N6/FeRAM","workload":"CG"}`,
		"different workload": `{"design":"NMM/N6","workload":"BT"}`,
		"different scale":    `{"design":"NMM/N6","workload":"CG","scale":16}`,
		"different iters":    `{"design":"NMM/N6","workload":"CG","iters":3}`,
		"no dilution":        `{"design":"NMM/N6","workload":"CG","dilution":-1}`,
	} {
		if other := norm(t, body); other.Key() == base.Key() {
			t.Errorf("%s: key collision with base request", name)
		}
	}
}

func TestNormalizeResolvesDefaults(t *testing.T) {
	r := norm(t, `{"design":"4LC/EH1","workload":"CG"}`)
	if r.Scale != 32 || r.WorkloadScale != 32 {
		t.Fatalf("defaults: scale=%d wscale=%d, want 32/32", r.Scale, r.WorkloadScale)
	}
	r2 := norm(t, `{"design":"4LC/EH1","workload":"CG","scale":8}`)
	if r2.WorkloadScale != 8 {
		t.Fatalf("workload scale should co-scale to 8, got %d", r2.WorkloadScale)
	}
}

func TestNormalizeRejectsExtendedMisuse(t *testing.T) {
	cases := map[string]string{
		"llc on NMM":          `{"design":{"family":"NMM","config":"N6","llc":"HMC"},"workload":"CG"}`,
		"reference with args": `{"design":{"family":"reference","config":"EH1"},"workload":"CG"}`,
		"custom with config":  `{"design":{"family":"custom","config":"EH1","custom":{"memory":{"tech":"DRAM"}}},"workload":"CG"}`,
	}
	for name, body := range cases {
		var r EvalRequest
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if apiErr := r.Normalize(); apiErr == nil {
			t.Errorf("%s: normalize accepted invalid request", name)
		}
	}
}

// TestCustomGeometryRejectedOnArrival: a custom cache the back end cannot
// build is a typed 400 from normalization, pinned to the offending level,
// never an internal error after profiling (which the server would then
// remember as a negative entry).
func TestCustomGeometryRejectedOnArrival(t *testing.T) {
	custom := func(caches string) string {
		return `{"design":{"family":"custom","custom":{"caches":` + caches +
			`,"memory":{"tech":"PCM"}}},"workload":"CG","scale":64,"workload_scale":2048}`
	}
	for _, tc := range []struct {
		name, caches, field string
	}{
		{"set count 3", `[{"tech":"eDRAM","size_bytes":196608,"line_bytes":4096}]`, "design.custom.caches[0]"},
		{"assoc 3", `[{"tech":"eDRAM","size_bytes":65536,"line_bytes":4096,"assoc":3}]`, "design.custom.caches[0]"},
		{"line 96", `[{"tech":"eDRAM","size_bytes":98304,"line_bytes":96}]`, "design.custom.caches[0]"},
		{"shrinking line", `[{"tech":"eDRAM","size_bytes":65536,"line_bytes":4096},{"tech":"eDRAM","size_bytes":1048576,"line_bytes":512}]`,
			"design.custom.caches[1].line_bytes"},
	} {
		var r EvalRequest
		if err := json.Unmarshal([]byte(custom(tc.caches)), &r); err != nil {
			t.Fatal(err)
		}
		apiErr := r.Normalize()
		if apiErr == nil || apiErr.Code != CodeInvalidRequest || apiErr.Field != tc.field {
			t.Errorf("%s: Normalize = %v, want %s on %s", tc.name, apiErr, CodeInvalidRequest, tc.field)
		}
	}
	// Power-of-two geometries, including a small cache whose associativity
	// clamps to its line count, normalize cleanly.
	norm(t, custom(`[{"tech":"eDRAM","size_bytes":16384,"line_bytes":4096},{"tech":"eDRAM","size_bytes":8388608,"line_bytes":4096,"assoc":8}]`))
}
