// Command reuse computes LRU reuse-distance histograms for workloads or
// their stored boundary streams, and prints the predicted
// fully-associative hit-rate curve — the quantity that justifies the
// repository's capacity co-scaling (DESIGN.md).
//
// Usage:
//
//	reuse -workload CG                  # profile a workload's full stream
//	reuse -workload CG -boundary        # profile its post-L3 stream
//	reuse -workload CG -store DIR       # read its stored profile record
//
// A stored record (see tracecat -capture and memsimd -store) carries the
// boundary stream's reuse sketch, so line sizes the sketch captured print
// with no replay at all; other line sizes replay the stored stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/report"
	"hybridmem/internal/reuse"
	"hybridmem/internal/serve"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

func main() {
	var (
		wlName   = flag.String("workload", "", "workload to profile")
		storeDir = flag.String("store", "", "store directory holding the workload's profile record (see tracecat -capture)")
		boundary = flag.Bool("boundary", false, "profile the post-L3 boundary stream instead of the full stream")
		lineSize = flag.Uint64("line", 64, "line granularity in bytes (power of two)")
		scale    = flag.Uint64("scale", design.DefaultScale, "workload co-scaling divisor")
	)
	flag.Parse()
	if *wlName == "" {
		flag.Usage()
		os.Exit(2)
	}

	s, err := reuse.NewSketcher(*lineSize)
	exitOn(err)
	label := *wlName
	var wp *exp.WorkloadProfile
	switch {
	case *storeDir != "":
		label += " (stored post-L3)"
		p, st, err := serve.OpenStoredProfile(*storeDir, *wlName, *scale)
		exitOn(err)
		defer st.Close()
		wp = p
	default:
		w, err := catalog.New(*wlName, workload.Options{Scale: *scale})
		exitOn(err)
		if !*boundary {
			w.Run(s)
			break
		}
		label += " (post-L3)"
		fmt.Fprintf(os.Stderr, "profiling %s...\n", *wlName)
		wp, err = exp.ProfileWorkload(w, *scale, exp.NoDilution)
		exitOn(err)
	}

	// A boundary profile's sketch answers the granularities it captured
	// with no replay; any other line size replays the boundary stream.
	g, ok := reuse.GranSketch{}, false
	if wp != nil {
		if g, ok = wp.Sketch.At(*lineSize); !ok {
			wp.Boundary.Replay(s)
		}
	}
	if !ok {
		g = s.Sketch().Grans[0]
	}
	h := g.Access
	fmt.Printf("%s: %d line-accesses over %d distinct %dB lines (%.1f MB footprint)\n",
		label, h.Total, h.Lines, *lineSize, float64(h.Lines**lineSize)/(1<<20))
	fmt.Printf("cold (first-touch): %d (%.2f%%); mean finite reuse distance: %.0f lines\n\n",
		h.Cold, 100*float64(h.Cold)/float64(h.Total), h.MeanDistance())

	t := &report.Table{
		Title:   "reuse-distance histogram",
		Headers: []string{"distance", "accesses", "share", "cum. hit rate at this cache size"},
	}
	for k, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo := uint64(1) << uint(k)
		if k == 0 {
			lo = 0
		}
		t.AddRow(
			fmt.Sprintf("[%d, %d)", lo, uint64(1)<<uint(k+1)),
			fmt.Sprint(n),
			fmt.Sprintf("%.2f%%", 100*float64(n)/float64(h.Total)),
			fmt.Sprintf("%.2f%%", 100*h.HitRate(uint64(1)<<uint(k+1))),
		)
	}
	_, err = t.WriteTo(os.Stdout)
	exitOn(err)

	fmt.Println()
	curve := &report.Table{
		Title:   "predicted fully-associative LRU hit rate",
		Headers: []string{"cache size", "hit rate"},
	}
	for k := 10; k <= 26; k += 2 {
		lines := (uint64(1) << uint(k)) / *lineSize
		if lines == 0 {
			continue
		}
		curve.AddRow(fmt.Sprintf("%d KB", (uint64(1)<<uint(k))/1024),
			fmt.Sprintf("%.2f%%", 100*h.HitRate(lines)))
	}
	_, err = curve.WriteTo(os.Stdout)
	exitOn(err)

	if ws := h.WorkingSet(0.9); ws > 0 {
		fmt.Printf("\n90%% working set: %d lines (%.1f MB)\n", ws, float64(ws**lineSize)/(1<<20))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reuse:", err)
		os.Exit(1)
	}
}
