// Command tracecat captures, inspects, and replays a workload's stored
// post-L3 boundary stream: the profile record (packed blocks plus profile
// manifest, FORMATS.md) that memsimd -store persists.
//
// Capture a workload's boundary stream once, then replay it into design
// points offline without re-running the workload:
//
//	tracecat -capture CG -store DIR              # profile CG, persist its record
//	tracecat -stat CG -store DIR                 # summarize the stored stream
//	tracecat -replay CG -store DIR -design nmm -config N6 -nvm PCM
//
// memsimd -store DIR -warm CG restores a capture without profiling (with
// -warm-scale equal to -scale). -stat and -replay only read: a workload
// tuple that was never captured is an error and leaves the store unchanged.
//
// Replayed statistics are per-backend only (the SRAM prefix behaviour is
// baked into the captured stream), so replays report raw hit rates and
// traffic rather than paper-normalized metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hybridmem/internal/cli"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/fault"
	"hybridmem/internal/report"
	"hybridmem/internal/serve"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
)

func main() {
	c := cli.New("tracecat", cli.Config|cli.LLC|cli.NVM|cli.Scale)
	c.AddDesign("nmm")
	var (
		capture  = flag.String("capture", "", "workload whose boundary stream to capture into -store")
		storeDir = flag.String("store", "", "store directory holding the profile records")
		stat     = flag.String("stat", "", "workload whose stored boundary stream to summarize")
		replay   = flag.String("replay", "", "workload whose stored boundary stream to replay into the -design back end")
	)
	c.Parse()

	switch {
	case *storeDir == "":
		c.Exit(fmt.Errorf("-store DIR is required"))
	case *capture != "":
		doCapture(c, *capture, *storeDir)
	case *stat != "":
		wp, st, err := serve.OpenStoredProfile(*storeDir, *stat, c.Scale)
		c.Exit(err)
		defer st.Close()
		doStat(wp)
	case *replay != "":
		wp, st, err := serve.OpenStoredProfile(*storeDir, *replay, c.Scale)
		c.Exit(err)
		defer st.Close()
		doReplay(c, wp)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// doCapture profiles the workload through the serving evaluator, whose
// write-through persists the profile record (a tuple already in the store
// is restored, not profiled again), then reads the record back as -stat
// and -replay will.
func doCapture(c *cli.Cmd, name, dir string) {
	req, err := serve.ProfileRequest(name, c.Scale)
	c.Exit(err)
	st, err := store.Open(dir, store.Options{})
	c.Exit(err)
	ev := serve.NewEvaluator(1, nil)
	ev.SetStoreGuard(serve.NewStoreGuard(st, nil, fault.RetryPolicy{}, nil))
	fmt.Fprintf(os.Stderr, "capturing %s...\n", name)
	_, err = ev.Evaluate(context.Background(), req)
	c.Exit(err)
	c.Exit(st.Close())

	wp, st, err := serve.OpenStoredProfile(dir, name, c.Scale)
	c.Exit(err)
	defer st.Close()
	n := wp.Boundary.Len()
	fmt.Printf("stored %d boundary refs (%d total refs) of %s at scale %d in %s (%.2f packed bytes/ref)\n",
		n, wp.TotalRefs, name, c.Scale, dir, float64(wp.Boundary.PackedBytes())/float64(n))
}

func doStat(wp *exp.WorkloadProfile) {
	var c trace.Counter
	var minAddr, maxAddr uint64 = ^uint64(0), 0
	wp.Boundary.Batches(nil, func(refs []trace.Ref) error {
		c.AccessBatch(refs)
		for _, r := range refs {
			minAddr = min(minAddr, r.Addr)
			maxAddr = max(maxAddr, r.Addr+uint64(r.Size))
		}
		return nil
	})
	n := wp.Boundary.Len()
	fmt.Printf("%s: %d refs (%d loads, %d stores), %d load bytes, %d store bytes, %.2f packed bytes/ref\n",
		wp.Name, n, c.Loads, c.Stores, c.LoadBytes, c.StoreBytes, float64(wp.Boundary.PackedBytes())/float64(max(n, 1)))
	if n > 0 {
		fmt.Printf("address span: [%#x, %#x) = %.1f MB\n", minAddr, maxAddr, float64(maxAddr-minAddr)/(1<<20))
	}
}

func doReplay(c *cli.Cmd, wp *exp.WorkloadProfile) {
	b, err := c.Backend(wp.Footprint)
	c.Exit(err)
	res := wp.EvaluateFanout(c.Ctx, []design.Backend{b})[0]
	c.Exit(res.Err)

	t := &report.Table{
		Title:   fmt.Sprintf("%s: %d refs replayed into %s", wp.Name, wp.Boundary.Len(), b.Name),
		Headers: []string{"level", "tech", "loads", "stores", "hit rate", "writebacks"},
	}
	for _, l := range res.Snap {
		t.AddRow(l.Name, l.Tech.Name,
			fmt.Sprint(l.Stats.Loads), fmt.Sprint(l.Stats.Stores),
			fmt.Sprintf("%.2f%%", l.Stats.HitRate()*100), fmt.Sprint(l.Stats.WriteBacks))
	}
	_, err = t.WriteTo(os.Stdout)
	c.Exit(err)
}
