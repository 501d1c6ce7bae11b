package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) comparison. Per-layer metrics, which
// have no bound, are only ever improved, worse or unchanged, and never fail
// a comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictWorse      = "worse"
)

// side summarizes one side's runs of one metric.
type side struct {
	values         []float64
	median, q1, q3 float64
}

func summarize(vs []float64) side {
	q1, q3 := quartiles(vs)
	return side{values: vs, median: median(vs), q1: q1, q3: q3}
}

// comparison is one row of a comparison report.
type comparison struct {
	workload, metric string
	parent, change   side
	// wins counts the pairs (parent run i, change run i) the change reads
	// better in, out of pairs; ties count for neither.
	wins, pairs int
	verdict     string
}

// better reports whether a reads better than b in direction dir.
func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// judge decides a verdict by the pairing rule: a gain needs the change to
// win at least nine tenths of the pairs and its median to differ from the
// parent's by more than the parent's interquartile range. With a bound, a
// median worse than the parent's by more than the bound is a regression,
// unless either side's spread (interquartile range over median) exceeds the
// bound, which leaves the metric unresolved — except when every change run
// reads worse (a regression) or better (no regression) than every parent
// run.
func judge(def metricDef, p, c side, wins, pairs int) string {
	gap := math.Abs(c.median - p.median)
	separated := pairs > 0 && gap > p.q3-p.q1
	switch {
	case separated && better(def.Better, c.median, p.median) && 10*wins >= 9*pairs:
		return verdictImproved
	case def.Bound == 0:
		if separated && better(def.Better, p.median, c.median) && 10*(pairs-wins) >= 9*pairs {
			return verdictWorse
		}
		return verdictUnchanged
	}
	worse := (c.median - p.median) / math.Abs(p.median)
	if def.Better == "higher" {
		worse = -worse
	}
	spread := math.Max((p.q3-p.q1)/math.Abs(p.median), (c.q3-c.q1)/math.Abs(c.median))
	if spread > def.Bound {
		switch {
		case allBetter(def.Better, p.values, c.values) && worse > def.Bound:
			return verdictRegressed
		case allBetter(def.Better, c.values, p.values):
			return verdictUnchanged
		}
		return verdictUnresolved
	}
	if worse > def.Bound {
		return verdictRegressed
	}
	return verdictUnchanged
}

// allBetter reports whether every value of a reads better than every value
// of b.
func allBetter(dir string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(dir, x, y) {
				return false
			}
		}
	}
	return true
}

// errorRate is a run's failed share of attempted operations.
func errorRate(wr workloadRun) float64 {
	if wr.Attempted == 0 {
		return 1
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

// compareRuns compares every workload and metric the two sets of runs share.
// Runs pair up in the order given, so alternate parent and change runs when
// making them. The error-rate row compares failed over attempted
// operations: any increase of the median is a regression.
func compareRuns(parent, change []runFile) []comparison {
	names := map[string]bool{}
	for _, rf := range parent {
		for w := range rf.Workloads {
			names[w] = true
		}
	}
	var out []comparison
	for _, w := range workloadOrder(names) {
		collect := func(runs []runFile, metric string) []float64 {
			var vs []float64
			for _, rf := range runs {
				wr, ok := rf.Workloads[w]
				if !ok {
					continue
				}
				if metric == "error_rate" {
					vs = append(vs, errorRate(wr))
				} else if m, ok := wr.Metrics[metric]; ok {
					vs = append(vs, m.Value)
				}
			}
			return vs
		}
		for _, def := range append(slices.Clone(endToEnd), perLayer...) {
			p, c := collect(parent, def.Name), collect(change, def.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			out = append(out, pairUp(w, def, p, c))
		}
		p, c := collect(parent, "error_rate"), collect(change, "error_rate")
		if len(p) > 0 && len(c) > 0 {
			row := pairUp(w, metricDef{Name: "error_rate", Unit: "ratio", Better: "lower"}, p, c)
			row.verdict = verdictUnchanged
			if row.change.median > row.parent.median {
				row.verdict = verdictRegressed
			}
			out = append(out, row)
		}
	}
	return out
}

// pairUp summarizes both sides, counts pair wins and judges the row.
func pairUp(workload string, def metricDef, p, c []float64) comparison {
	row := comparison{workload: workload, metric: def.Name, parent: summarize(p), change: summarize(c)}
	row.pairs = min(len(p), len(c))
	for i := 0; i < row.pairs; i++ {
		if better(def.Better, c[i], p[i]) {
			row.wins++
		}
	}
	row.verdict = judge(def, row.parent, row.change, row.wins, row.pairs)
	return row
}

// workloadOrder lists the named workloads in benchmark order, then any
// others sorted.
func workloadOrder(names map[string]bool) []string {
	var out, rest []string
	for _, wl := range workloads {
		if names[wl.name] {
			out = append(out, wl.name)
		}
	}
	for n := range names {
		if !slices.Contains(out, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// compareMain implements `bench compare <parent runs...> -- <change runs...>`.
// It prints one row per workload and metric and exits 1 when any row
// regressed, 2 on bad arguments.
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench compare <parent run files...> -- <change run files...>")
		return 2
	}
	load := func(paths []string) ([]runFile, error) {
		var rfs []runFile
		for _, p := range paths {
			rf, err := readRunFile(p)
			if err != nil {
				return nil, err
			}
			rfs = append(rfs, rf)
		}
		return rfs, nil
	}
	parent, err := load(args[:sep])
	if err == nil {
		var change []runFile
		if change, err = load(args[sep+1:]); err == nil {
			return printComparison(stdout, compareRuns(parent, change))
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

// printComparison writes the report and returns the exit status.
func printComparison(w io.Writer, rows []comparison) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	status := 0
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
			c.workload, c.metric, c.parent.median, c.parent.q1, c.parent.q3,
			c.change.median, c.change.q1, c.change.q3, c.wins, c.pairs, c.verdict)
		if c.verdict == verdictRegressed {
			status = 1
		}
	}
	tw.Flush()
	return status
}
