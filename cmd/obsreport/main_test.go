package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = `{"event":"run_start","trace_id":"aaaa000011112222","span_id":"s1","cmd":"memsim"}
{"event":"design_point","trace_id":"aaaa000011112222","span_id":"s2","parent_id":"s1","design":"NMM/N6","wall_ms":12.0,"replayed_refs":4096,"refs_per_sec":341333}
{"event":"design_point","trace_id":"aaaa000011112222","span_id":"s3","parent_id":"s1","design":"NMM/N6","wall_ms":8.0,"replayed_refs":4096,"refs_per_sec":512000}
{"event":"design_point","trace_id":"bbbb000011112222","span_id":"t2","parent_id":"t1","design":"4LC/EH1","wall_ms":20.0,"replayed_refs":4096,"refs_per_sec":204800}
{"event":"run_end","trace_id":"aaaa000011112222","span_id":"s1","wall_ms":25.0,"stages":{"profile":5.0,"replay":18.0}}
not json at all
{"no_event_key":true}

{"event":"orphan","trace_id":"aaaa000011112222","span_id":"s9","parent_id":"missing","wall_ms":1.0}
{"event":"http_request","outcome":"miss","status":200,"wall_ms":14.0}
{"event":"http_request","outcome":"hit","status":200,"wall_ms":0.2}
{"event":"http_request","outcome":"hit","status":200,"wall_ms":0.1}
{"event":"http_request","outcome":"rate_limited","status":429,"wall_ms":0.05}
{"event":"http_request","outcome":"would_deadline","status":503,"wall_ms":0.05}
{"event":"http_request","outcome":"negative","status":500,"wall_ms":0.3}
{"event":"http_request","outcome":"from_the_future","status":200,"wall_ms":1.0}
{"event":"store_open","dir":"/tmp/x","streams":1,"docs":2,"torn_bytes_recovered":64,"wall_ms":3.0}
{"event":"warning","message":"store_wound","err":"store: simulated crash (torn write injected)","state":"degraded"}
{"event":"warning","message":"store_reopen_failed","attempt":1,"err":"gated"}
{"event":"warning","message":"store_reopen_failed","attempt":2,"err":"gated"}
{"event":"store_heal","state":"ok","attempts":3,"wall_ms":9.0,"torn_bytes_recovered":128,"streams":1,"docs":3}
`

func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSkipsMalformedLines(t *testing.T) {
	recs, skipped, err := load([]string{writeFixture(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 18 {
		t.Fatalf("loaded %d records, want 18", len(recs))
	}
	if skipped != 2 {
		t.Fatalf("skipped %d lines, want 2 (junk + missing event key)", skipped)
	}
	if recs[0].str("event") != "run_start" || recs[0].str("cmd") != "memsim" {
		t.Fatalf("first record = %v", recs[0].fields)
	}
	if wall, ok := recs[4].num("wall_ms"); !ok || wall != 25.0 {
		t.Fatalf("run_end wall_ms = %v, %v", wall, ok)
	}
	st := recs[4].stages()
	if st["profile"] != 5.0 || st["replay"] != 18.0 {
		t.Fatalf("run_end stages = %v", st)
	}
}

func TestDistQuantilesExact(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d.add(float64(i))
	}
	if got := d.quantile(0.5); math.Abs(got-50.5) > 0.01 {
		t.Errorf("p50 = %v, want 50.5", got)
	}
	if got := d.quantile(1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := d.mean(); math.Abs(got-50.5) > 0.01 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if d.max() != 100 || d.count() != 100 || d.total() != 5050 {
		t.Errorf("max/count/total = %v/%v/%v", d.max(), d.count(), d.total())
	}
	var empty dist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty dist must report zeros")
	}
}

func TestPrintTraceTree(t *testing.T) {
	recs, _, err := load([]string{writeFixture(t)})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printTrace(&out, recs, "aaaa000011112222"); err != nil {
		t.Fatal(err)
	}
	text := out.String()

	// Child design_point spans must be indented under the root span, and the
	// orphan (parent never logged) must not vanish.
	rootAt := strings.Index(text, "run_start")
	childAt := strings.Index(text, "design_point")
	if rootAt < 0 || childAt < 0 || childAt < rootAt {
		t.Fatalf("span tree out of order:\n%s", text)
	}
	if !strings.Contains(text, "orphan") {
		t.Errorf("orphaned span dropped from the tree:\n%s", text)
	}
	// Stage breakdown against the trace's wall time.
	for _, want := range []string{"profile", "replay", "wall"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace report missing %q:\n%s", want, text)
		}
	}
	// Records from the other trace must not leak in.
	if strings.Contains(text, "4LC/EH1") {
		t.Errorf("foreign trace leaked into the report:\n%s", text)
	}

	if err := printTrace(&out, recs, "ffffffffffffffff"); err == nil {
		t.Error("unknown trace ID must error")
	}
}

func TestPrintThroughputAndLatency(t *testing.T) {
	recs, _, err := load([]string{writeFixture(t)})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printEventLatency(&out, recs); err != nil {
		t.Fatal(err)
	}
	if err := printStageLatency(&out, recs); err != nil {
		t.Fatal(err)
	}
	if err := printThroughput(&out, recs); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"design_point", "profile", "replay", "NMM/N6", "4LC/EH1"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestOutcomeClassCoversServeLabels(t *testing.T) {
	classes := map[string]string{
		"hit": "served", "miss": "served", "dedup": "served", "store_hit": "served",
		"analytic":     "served",
		"rate_limited": "refused", "would_deadline": "refused",
		"overloaded": "refused", "shutting_down": "refused",
		"invalid": "rejected",
		"panic":   "failed", "timeout": "failed", "canceled": "failed", "error": "failed",
		"negative":      "failed",
		"circuit_open":  "unknown",
		"something_new": "unknown",
	}
	for outcome, want := range classes {
		if got := outcomeClass(outcome); got != want {
			t.Errorf("outcomeClass(%q) = %q, want %q", outcome, got, want)
		}
	}
}

func TestPrintOutcomes(t *testing.T) {
	recs, _, err := load([]string{writeFixture(t)})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printOutcomes(&out, recs); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// Admission-control refusals must show up classed, and the unknown
	// label must be flagged rather than absorbed.
	for _, want := range []string{
		"request outcomes", "rate_limited", "would_deadline", "negative",
		"refused", "served", "failed", "from_the_future", "unknown",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("outcome report missing %q:\n%s", want, text)
		}
	}
	// 2 hits of 7 http_request records.
	if !strings.Contains(text, "28.6%") {
		t.Errorf("outcome shares wrong (want a 28.6%% row for hits):\n%s", text)
	}
	// Logs without http_request events print nothing.
	var empty strings.Builder
	if err := printOutcomes(&empty, recs[:4]); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("outcome report for a serverless log should be empty, got:\n%s", empty.String())
	}
}

func TestPrintStoreLifecycle(t *testing.T) {
	recs, _, err := load([]string{writeFixture(t)})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printStoreLifecycle(&out, recs); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"1 open(s)", "1 wound(s)", "1 heal(s)", "2 failed reopen attempt(s)",
		"torn bytes recovered: 192", "mean reopen attempts per heal: 3.0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("store lifecycle report missing %q:\n%s", want, text)
		}
	}
	// Every wound healed: no degraded-at-exit warning.
	if strings.Contains(text, "never healed") {
		t.Errorf("unexpected unhealed-wound warning:\n%s", text)
	}
	// A wound with no heal must be called out.
	wounded := append([]record(nil), recs...)
	wounded = append(wounded, record{fields: map[string]any{
		"event": "warning", "message": "store_wound", "err": "disk full",
	}})
	var warn strings.Builder
	if err := printStoreLifecycle(&warn, wounded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn.String(), "1 wound(s) never healed") {
		t.Errorf("missing unhealed-wound warning:\n%s", warn.String())
	}
	// Logs without store events print nothing.
	var empty strings.Builder
	if err := printStoreLifecycle(&empty, recs[:4]); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("store report for a storeless log should be empty, got:\n%s", empty.String())
	}
}
