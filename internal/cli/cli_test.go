package cli

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/tech"
	"hybridmem/internal/workload"
	"hybridmem/internal/workload/catalog"
)

// parse registers flags (plus -workload and -design when their defaults are
// non-empty) on a fresh flag set, parses args and validates.
func parse(t *testing.T, flags Flag, wl, dsgn string, args ...string) (*Cmd, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := newCmd("test", fs, flags)
	if wl != "" {
		c.AddWorkload(wl)
	}
	if dsgn != "" {
		c.AddDesign(dsgn)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c, c.Validate()
}

func TestValidate(t *testing.T) {
	const designFlags = Scale | LLC | NVM | Config
	tests := []struct {
		name     string
		flags    Flag
		workload string
		dsgn     string
		args     []string
		wantErr  string // substring; empty = valid
		check    func(*testing.T, *Cmd)
	}{
		{name: "workloads default", flags: Workloads, check: func(t *testing.T, c *Cmd) {
			if c.Workloads != nil {
				t.Errorf("Workloads = %v, want nil (whole suite)", c.Workloads)
			}
		}},
		{name: "workloads trimmed", flags: Workloads, args: []string{"-workloads", "CG, BT"}, check: func(t *testing.T, c *Cmd) {
			if !slices.Equal(c.Workloads, []string{"CG", "BT"}) {
				t.Errorf("Workloads = %q, want [CG BT]", c.Workloads)
			}
		}},
		{name: "workloads extended names", flags: Workloads, args: []string{"-workloads", "LU,STREAM"}},
		{name: "workloads empty item", flags: Workloads, args: []string{"-workloads", "CG,,BT"}, wantErr: "empty item"},
		{name: "workloads trailing comma", flags: Workloads, args: []string{"-workloads", "CG,"}, wantErr: "empty item"},
		{name: "workloads duplicate", flags: Workloads, args: []string{"-workloads", "CG,CG"}, wantErr: "twice"},
		{name: "workloads unknown", flags: Workloads, args: []string{"-workloads", "BT,SP,Nope"}, wantErr: `"Nope" (known: BT, SP, Graph500`},
		{name: "workload unknown", workload: "CG", args: []string{"-workload", "Nope"}, wantErr: "unknown workload"},
		{name: "scale default", flags: Scale, check: func(t *testing.T, c *Cmd) {
			if c.Scale != design.DefaultScale {
				t.Errorf("Scale = %d, want %d", c.Scale, design.DefaultScale)
			}
		}},
		{name: "scale not a power of two", flags: Scale, args: []string{"-scale", "3"}, wantErr: "power of two"},
		{name: "scale zero", flags: Scale, args: []string{"-scale", "0"}, wantErr: "power of two"},
		{name: "scale above 64", flags: Scale, args: []string{"-scale", "128"}, wantErr: "power of two"},
		{name: "workload-scale", flags: Scale | WorkloadScale, args: []string{"-workload-scale", "4096"}},
		{name: "workload-scale not a power of two", flags: Scale | WorkloadScale, args: []string{"-workload-scale", "3"}, wantErr: "power of two"},
		{name: "timeseries implies epoch", flags: Epoch, args: []string{"-timeseries", "ts.csv"}, check: func(t *testing.T, c *Cmd) {
			if c.Epoch != obs.DefaultEpochRefs {
				t.Errorf("Epoch = %d, want %d", c.Epoch, obs.DefaultEpochRefs)
			}
		}},
		{name: "workers 0 means GOMAXPROCS", flags: Workers, check: func(t *testing.T, c *Cmd) {
			if c.Workers != runtime.GOMAXPROCS(0) {
				t.Errorf("Workers = %d, want GOMAXPROCS %d", c.Workers, runtime.GOMAXPROCS(0))
			}
		}},
		{name: "missing catalog file", flags: Catalog, args: []string{"-catalog", filepath.Join(t.TempDir(), "none.json")}, wantErr: "none.json"},
		{name: "llc and nvm", flags: LLC | NVM, args: []string{"-llc", "hmc", "-nvm", "STTRAM"}, check: func(t *testing.T, c *Cmd) {
			if c.LLC.Name != "HMC" || c.NVM.Name != "STTRAM" {
				t.Errorf("LLC, NVM = %s, %s; want HMC, STTRAM", c.LLC.Name, c.NVM.Name)
			}
		}},
		{name: "unknown design", flags: designFlags, dsgn: "reference", args: []string{"-design", "ndm"}, wantErr: "unknown design"},
		{name: "config of another family", flags: designFlags, dsgn: "reference", args: []string{"-design", "nmm", "-config", "EH1"}, wantErr: "EH1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := parse(t, tt.flags, tt.workload, tt.dsgn, tt.args...)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if tt.check != nil {
					tt.check(t, c)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestTechnologyClass pins that every command resolving -llc/-nvm refuses a
// technology of the wrong catalog class, as memsimd and tracecat do.
func TestTechnologyClass(t *testing.T) {
	tests := []struct {
		name  string
		flags Flag
		dsgn  string
		args  []string
	}{
		{"memsim nmm on HMC", Scale | LLC | NVM | Config, "reference", []string{"-design", "nmm", "-nvm", "HMC"}},
		{"memsim 4lc on PCM", Scale | LLC | NVM | Config, "reference", []string{"-design", "4lc", "-llc", "PCM"}},
		{"ndmexplore on DRAM", Scale | NVM, "", []string{"-nvm", "DRAM"}},
		{"paperrepro llc STTRAM", Scale | LLC | NVM, "", []string{"-llc", "STTRAM"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parse(t, tt.flags, "", tt.dsgn, tt.args...)
			var ce *design.ClassError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want *design.ClassError", err)
			}
		})
	}
}

// TestBackendMatchesConstructors pins that the registry-backed resolver
// builds the same back ends the package-level constructors do on the
// builtin catalog, so commands that moved onto it print the same bytes.
func TestBackendMatchesConstructors(t *testing.T) {
	const footprint = 1 << 26
	eh1, _ := design.EHByName("EH1")
	eh3, _ := design.EHByName("EH3")
	n6, _ := design.NByName("N6")
	tests := []struct {
		args []string
		want design.Backend
	}{
		{nil, design.Reference(footprint)},
		{[]string{"-design", "4lc"}, design.FourLC(eh1, tech.EDRAM, 32, footprint)},
		{[]string{"-design", "nmm"}, design.NMM(n6, tech.PCM, 32, footprint)},
		{[]string{"-design", "4lcnvm", "-config", "EH3"}, design.FourLCNVM(eh3, tech.EDRAM, tech.PCM, 32, footprint)},
	}
	for _, tt := range tests {
		c, err := parse(t, Scale|LLC|NVM|Config, "", "reference", tt.args...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Backend(footprint)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%v: Backend = %+v, want %+v", tt.args, got, tt.want)
		}
	}
}

// TestWorkloadNamesMatchCatalog pins the up-front name check to what
// catalog.New accepts.
func TestWorkloadNamesMatchCatalog(t *testing.T) {
	for _, name := range append(slices.Clone(catalog.ExtendedNames), "Nope", "cg") {
		_, newErr := catalog.New(name, workload.Options{Scale: 4096})
		if checkErr := checkWorkload(name); (newErr == nil) != (checkErr == nil) {
			t.Errorf("%s: catalog.New error %v, checkWorkload error %v", name, newErr, checkErr)
		}
	}
}

// TestTimeSeriesDashWritesStderr pins "-timeseries -" to stderr in every
// command: stdout carries the command's primary output (the sweep CSV, a
// figure, the memsim report), so the epoch CSV must not interleave with it.
func TestTimeSeriesDashWritesStderr(t *testing.T) {
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()

	s := &exp.Suite{Profiles: []*exp.WorkloadProfile{{
		Name: "CG",
		Series: &obs.Series{
			EveryRefs: 10,
			Levels:    []string{"L1"},
			Epochs: []obs.Epoch{{EndRefs: 10, Refs: 10,
				Levels: []obs.LevelSample{{HitRate: 0.5}}}},
		},
	}}}
	c := &Cmd{TimeSeries: "-"}
	if err := c.EmitTimeSeries(SuiteSeries(s)); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("-timeseries - wrote to stdout, which carries the command's output:\n%s", out)
	}
	errOut, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(errOut), "workload,epoch,") || !strings.Contains(string(errOut), "CG,0,10,10,L1,0.5000") {
		t.Errorf("epoch CSV missing from stderr:\n%s", errOut)
	}
}

// TestRunLog pins the run_start/run_end pair every command logs: cmd and
// the flag values on run_start; cmd, wall_ms, refs_processed, the stage
// breakdown and the caller's fields on run_end.
func TestRunLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	c, err := parse(t, Scale|Workloads|RunLog, "", "", "-runlog", path, "-scale", "64", "-workloads", "CG")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	obs.TimeStage(c.Ctx, "profile")()
	c.Finish(obs.Fields{"grid": 3})

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 || recs[0]["event"] != "run_start" || recs[1]["event"] != "run_end" {
		t.Fatalf("records = %v, want run_start then run_end", recs)
	}
	start, end := recs[0], recs[1]
	if start["cmd"] != "test" || start["scale"] != 64.0 || start["workloads"] != "CG" {
		t.Errorf("run_start = %v, want cmd, scale and workloads", start)
	}
	for _, k := range []string{"wall_ms", "refs_processed", "stages", "trace_id"} {
		if _, ok := end[k]; !ok {
			t.Errorf("run_end has no %s: %v", k, end)
		}
	}
	if end["cmd"] != "test" || end["grid"] != 3.0 || end["trace_id"] != start["trace_id"] {
		t.Errorf("run_end = %v, want cmd, grid and run_start's trace_id", end)
	}
}
