package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Fields carries the free-form payload of one log event. encoding/json
// marshals map keys in sorted order, so records are deterministic for a
// given payload.
type Fields map[string]any

// Logger emits structured JSON-lines run events: one JSON object per line,
// each carrying an RFC3339 timestamp ("ts"), an event name ("event"), and
// the event's fields. A nil *Logger discards everything, so call sites need
// no guards; a non-nil Logger is safe for concurrent use (the experiment
// worker pool logs from many goroutines).
type Logger struct {
	mu       sync.Mutex
	w        io.Writer
	now      func() time.Time
	firstErr error
}

// NewLogger returns a Logger writing JSONL records to w (nil w yields a
// discard-everything logger).
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{w: w, now: time.Now}
}

// Event writes one record. Reserved keys "ts" and "event" in fields are
// overwritten. Marshal failures degrade to a plain error record rather than
// aborting the run.
func (l *Logger) Event(event string, fields Fields) {
	if l == nil {
		return
	}
	rec := make(Fields, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ts"] = l.now().UTC().Format(time.RFC3339Nano)
	rec["event"] = event
	line, err := json.Marshal(rec)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"ts":%q,"event":"log_error","error":%q}`,
			l.now().UTC().Format(time.RFC3339Nano), err.Error()))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(line); err != nil {
		l.degrade(err)
		return
	}
	if _, err := io.WriteString(l.w, "\n"); err != nil {
		l.degrade(err)
	}
}

// runlogWriteErrors counts run-log events lost to sink write errors, across
// every Logger in the process (memsimd_runlog_write_errors on /metrics;
// above zero means some run log has dropped events).
var runlogWriteErrors = NewCounter("memsimd.runlog_write_errors")

// runlogDropped returns the process-wide run-log write-error counter.
func runlogDropped() *Counter { return runlogWriteErrors }

// degrade records a sink write failure: every failure counts toward the
// process-wide runlog_write_errors counter, and the logger's first failure
// is reported once on stderr (the sink itself is unwritable, so the warning
// cannot go there) and kept for Degraded. Called with l.mu held. The run
// continues — a full disk must degrade observability, not the simulation.
func (l *Logger) degrade(err error) {
	runlogDropped().Add(1)
	if l.firstErr != nil {
		return
	}
	l.firstErr = err
	fmt.Fprintf(os.Stderr, "obs: run log degraded, events are being dropped: %v\n", err)
}

// Degraded returns the logger's first sink write error (nil while every
// event has been written). A degraded logger keeps trying — transient sink
// errors may clear — but the first failure is sticky here so operators and
// tests can detect a lossy run log.
func (l *Logger) Degraded() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// Warn emits a "warning" event with the given message.
func (l *Logger) Warn(msg string, fields Fields) {
	if l == nil {
		return
	}
	rec := make(Fields, len(fields)+1)
	for k, v := range fields {
		rec[k] = v
	}
	rec["message"] = msg
	l.Event("warning", rec)
}

// Span emits event+"_start" now and returns a closure that emits
// event+"_end" carrying the elapsed wall-clock milliseconds plus any extra
// fields. Start fields are repeated on the end event so each line is
// self-contained (grep-able without joining).
func (l *Logger) Span(event string, fields Fields) func(extra Fields) {
	if l == nil {
		return func(Fields) {}
	}
	l.Event(event+"_start", fields)
	start := l.now()
	return func(extra Fields) {
		end := make(Fields, len(fields)+len(extra)+1)
		for k, v := range fields {
			end[k] = v
		}
		for k, v := range extra {
			end[k] = v
		}
		end["wall_ms"] = float64(l.now().Sub(start)) / float64(time.Millisecond)
		l.Event(event+"_end", end)
	}
}

// ThroughputFields summarizes a processing interval as standard fields:
// reference count, wall-clock milliseconds, and refs/sec.
func ThroughputFields(refs uint64, elapsed time.Duration) Fields {
	f := Fields{
		"refs":    refs,
		"wall_ms": float64(elapsed) / float64(time.Millisecond),
	}
	if elapsed > 0 {
		f["refs_per_sec"] = float64(refs) / elapsed.Seconds()
	}
	return f
}
