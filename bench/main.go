// Command bench is the repository's end-to-end benchmark. It measures the
// simulator the two ways users reach it: offline sweeps through the exp
// harness, and online evaluation through the serving layer (memsimd's
// Server, in process, over loopback HTTP). Each run measures one workload —
// a fixed traffic mix, built from the seed — for a fixed time, checks every
// answer it receives, and reports end-to-end metrics; a traced run reports
// per-layer metrics instead. README.md describes the workloads and metrics.
//
// Usage (from this directory; bench/run.sh builds and runs the same program
// from the repository root):
//
//	go run . -workload sweep_exact -seed 1 -seconds 10
//	go run . -seed 1 -o run.json                  # every workload, one child process each
//	go run . -seed 1 -trace 1 -o trace.json       # the traced run: per-layer metrics
//	go run . compare parent*.json -- change*.json # noise-aware comparison of run files
//	go run . -record testdata/expected_grid.json  # re-record the expected exact grid
//
// The last line of standard output is the run's result as one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload: a traffic mix, and why the
// benchmark carries it.
type workloadDef struct {
	name, why string
	run       func(*run) error
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workloadDef{
	{"sweep_exact", "paperrepro/sweep traffic: the exact 91-point Table 2/3 grid on all 7 Table 4 workloads via RunJobs; decode, AccessBatch and model work, analytic/serve/store idle", sweepExact},
	{"explore_analytic", "cmd/explore two-fidelity traffic on custom geometries the grid never uses: analytic screening of 5000 designs per workload, exact replay of the 16 best", exploreAnalytic},
	{"serve_hot", "memsimd hot path: 98% Zipf-skewed cache hits over 182 warmed points plus 2% first-time analytic designs; HTTP, normalize, key, LRU and encode work, replay idle", serveHot},
	{"serve_cold_store", "memsimd over a durable store: first-time exact designs (unshared replay plus store write), a restart, then reads from disk; the only workload where the store works", serveColdStore},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", defaultSeconds, "length of each workload's measured phase, in seconds")
	traceF := fs.Int("trace", 0, "1 runs the traced run, which reports per-layer metrics instead of end-to-end ones")
	out := fs.String("o", "", "also write the run to this JSON file")
	record := fs.String("record", "", "record the expected exact grid to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *record != "" {
		if err := recordGrid(*record); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	rf := runFile{Seed: *seed, Seconds: *seconds, Trace: *traceF, Workloads: map[string]workloadRun{}}
	var err error
	if *name == "all" {
		err = runAll(&rf)
	} else {
		err = runOne(*name, &rf)
	}
	if err == nil && *out != "" {
		err = writeJSON(*out, rf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process, prints its metric lines and
// result, and adds it to rf.
func runOne(name string, rf *runFile) error {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := newRun(fixedConfig, rf.Seed, time.Duration(rf.Seconds)*time.Second, rf.Trace == 1, tmp)
	if r.grid, err = loadExpectedGrid(r.cfg); err != nil {
		return err
	}
	wr, defs, err := measure(r, *wl)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rf.Workloads[name] = wr
	printLines(os.Stdout, name, defs, wr)
	line, err := json.Marshal(wr.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs the workload and, in a traced run, the layer ladder, and
// returns the result over the run's metric table.
func measure(r *run, wl workloadDef) (workloadRun, []metricDef, error) {
	r.speed = startHostSpeed()
	start := time.Now()
	err := wl.run(r)
	defs := endToEnd
	if err == nil && r.traced {
		defs = perLayer
		if err = ladder(r); err != nil {
			err = fmt.Errorf("layer ladder: %w", err)
		}
	}
	r.speed.close()
	if err != nil {
		return workloadRun{}, nil, err
	}
	r.set("peak_rss_mb", peakRSSMiB())
	wr, err := r.report(defs)
	wr.HostSpeed = r.speed.scale(start, time.Now())
	return wr, defs, err
}

// runAll runs every workload in its own child process, so that each one's
// peak_rss_mb is its own, and gathers their run files into rf.
func runAll(rf *runFile) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, wl := range workloads {
		path := filepath.Join(tmp, wl.name+".json")
		cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(rf.Seed),
			"-seconds", fmt.Sprint(rf.Seconds), "-trace", fmt.Sprint(rf.Trace), "-o", path)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		child, err := readRunFile(path)
		if err != nil {
			return err
		}
		rf.Workloads[wl.name] = child.Workloads[wl.name]
	}
	return nil
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRunFile(path string) (runFile, error) {
	var rf runFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
