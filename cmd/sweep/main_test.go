package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
)

// TestTimeSeriesDashWritesStderr pins "-timeseries -": stdout carries the
// sweep CSV, so the epoch CSV must go to stderr instead of interleaving
// with the design rows.
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
	if err := emitTimeSeries("-", s); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("-timeseries - wrote to stdout, which carries the sweep CSV:\n%s", out)
	}
	errOut, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(errOut), "workload,epoch,") || !strings.Contains(string(errOut), "CG,0,10,10,L1,0.5000") {
		t.Errorf("epoch CSV missing from stderr:\n%s", errOut)
	}
}
