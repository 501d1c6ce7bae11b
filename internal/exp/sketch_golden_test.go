package exp

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"hybridmem/internal/reuse"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// updateSketchGolden regenerates the sketch fixtures. The committed files
// were recorded by an independent sketcher implementation (a page map and
// an access-count-sized Fenwick tree per granularity), so they check the
// current one against it. Regenerate them only when the sketch semantics
// change on purpose, which also means bumping reuse.SketchVersion.
var updateSketchGolden = flag.Bool("update-sketch-golden", false, "regenerate testdata/sketch_*.json from the current sketcher")

// Sketch fixtures run at the benchmark's configuration: capacity scale 64,
// workload scale 1024, default dilution.
const (
	sketchGoldenScale         = 64
	sketchGoldenWorkloadScale = 1024
)

// TestSketchGolden pins the reuse sketch of two Table 4 workloads to the
// recorded fixtures field for field: every histogram bucket, cold count and
// traffic scalar at every design granularity.
func TestSketchGolden(t *testing.T) {
	for _, name := range []string{"SP", "CG"} {
		t.Run(name, func(t *testing.T) {
			w, err := catalog.New(name, workload.Options{Scale: sketchGoldenWorkloadScale})
			if err != nil {
				t.Fatal(err)
			}
			wp, err := ProfileWorkload(w, sketchGoldenScale, DefaultDilution)
			if err != nil {
				t.Fatal(err)
			}
			path := "testdata/sketch_" + name + ".json"
			if *updateSketchGolden {
				blob, err := json.MarshalIndent(wp.Sketch, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want reuse.Sketch
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}
			if want.Version != reuse.SketchVersion {
				t.Fatalf("fixture version %d, sketcher version %d", want.Version, reuse.SketchVersion)
			}
			if !reflect.DeepEqual(wp.Sketch, &want) {
				got, _ := json.Marshal(wp.Sketch)
				t.Fatalf("%s sketch differs from %s:\n got %s\nwant %s", name, path, got, blob)
			}
		})
	}
}
