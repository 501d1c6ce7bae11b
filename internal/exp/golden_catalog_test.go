package exp

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/model"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// updateGolden regenerates the Table 2/3 fixture from the registry path.
// The committed fixture predates the technology catalog; regenerate it only
// when a design point's evaluation intentionally changes.
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden_table23.json from the design registry")

// goldenPath is the committed fixture location.
const goldenPath = "testdata/golden_table23.json"

// goldenScale and goldenWorkloadScale shrink the fixture run to test size
// while keeping every Table 2/3 design shape intact.
const (
	goldenScale         = 64
	goldenWorkloadScale = 2048
	goldenWorkload      = "CG"
)

// goldenCase is one fixture row: a design-point label and its evaluation.
type goldenCase struct {
	Label string           `json:"label"`
	Eval  model.Evaluation `json:"eval"`
}

// goldenProfile profiles the fixture workload exactly as the fixture
// generator did.
func goldenProfile(t *testing.T) *WorkloadProfile {
	t.Helper()
	w, err := catalog.New(goldenWorkload, workload.Options{Scale: goldenWorkloadScale})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := ProfileWorkload(w, goldenScale, DefaultDilution)
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// evaluateAll replays the profiled stream into each backend serially (width-1
// fan-out; TestFanoutMatchesSerial pins the wider paths to this one).
func evaluateAll(t *testing.T, wp *WorkloadProfile, backends []design.Backend) []goldenCase {
	t.Helper()
	out := make([]goldenCase, len(backends))
	for i, b := range backends {
		ev, err := wp.EvaluateCtx(context.Background(), b)
		if err != nil {
			t.Fatalf("evaluate %s: %v", b.Name, err)
		}
		out[i] = goldenCase{Label: b.Name, Eval: ev}
	}
	return out
}

// table23Backends enumerates every Table 2/3 design point by name through
// the given registry.
func table23Backends(t *testing.T, r *design.Registry, footprint uint64) []design.Backend {
	t.Helper()
	build := func(b design.Backend, err error) design.Backend {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var out []design.Backend
	for _, cfg := range design.EHConfigs {
		for _, llc := range []string{"eDRAM", "HMC"} {
			out = append(out, build(r.FourLC(cfg.Name, llc, goldenScale, footprint)))
		}
	}
	for _, cfg := range design.NConfigs {
		for _, nvm := range []string{"PCM", "STTRAM", "FeRAM"} {
			out = append(out, build(r.NMM(cfg.Name, nvm, goldenScale, footprint)))
		}
	}
	for _, cfg := range design.EHConfigs {
		for _, llc := range []string{"eDRAM", "HMC"} {
			for _, nvm := range []string{"PCM", "STTRAM", "FeRAM"} {
				out = append(out, build(r.FourLCNVM(cfg.Name, llc, nvm, goldenScale, footprint)))
			}
		}
	}
	return out
}

// TestGoldenTable23Fixture pins the design space to the committed fixture:
// every Table 2/3 design point, built by name through the builtin catalog's
// registry, must evaluate the fixture workload struct-equal to its fixture
// row. With -update-golden it regenerates the fixture instead.
func TestGoldenTable23Fixture(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture replay in -short mode")
	}
	wp := goldenProfile(t)
	got := evaluateAll(t, wp, table23Backends(t, design.DefaultRegistry(), wp.Footprint))

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}
	compareGolden(t, readGolden(t), got)
}

// TestGoldenCatalogEquivalence pins the catalog-file path to the builtin
// one: the builtin catalog written to disk and loaded back (as a -catalog
// flag does) must carry the builtin's hash, build every Table 2/3 design
// point deep-equal to the default registry's, and reproduce the committed
// fixture struct-for-struct.
func TestGoldenCatalogEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture replay in -short mode")
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path, tech.BuiltinJSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := tech.LoadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Hash() != tech.Builtin().Hash() {
		t.Fatalf("loaded catalog hash %s, builtin %s", cat.Hash(), tech.Builtin().Hash())
	}
	r, err := design.NewRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}

	wp := goldenProfile(t)
	builtin := table23Backends(t, design.DefaultRegistry(), wp.Footprint)
	loaded := table23Backends(t, r, wp.Footprint)
	if len(builtin) != len(loaded) {
		t.Fatalf("loaded catalog enumerates %d design points, builtin %d", len(loaded), len(builtin))
	}
	for i := range builtin {
		if !reflect.DeepEqual(builtin[i], loaded[i]) {
			t.Errorf("%s: loaded-catalog backend diverges from builtin\n got %+v\nwant %+v",
				builtin[i].Name, loaded[i], builtin[i])
		}
	}
	compareGolden(t, readGolden(t), evaluateAll(t, wp, loaded))
}

// readGolden loads the committed fixture.
func readGolden(t *testing.T) []goldenCase {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// compareGolden asserts got is struct-equal to the fixture, case by case.
func compareGolden(t *testing.T, want, got []goldenCase) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d cases, fixture has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Label != w.Label {
			t.Errorf("case %d: label %q, fixture %q", i, g.Label, w.Label)
			continue
		}
		if g.Eval != w.Eval {
			t.Errorf("%s: evaluation diverges from fixture\n got %+v\nwant %+v", w.Label, g.Eval, w.Eval)
		}
	}
}
