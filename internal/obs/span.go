package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing layer: a span context
// (trace_id/span_id/parent_id) carried through context.Context from the
// HTTP handler down to block decode and per-design replay, plus a Stages
// accumulator that turns one request into a per-stage wall-time breakdown
// (validate, cache lookup, singleflight wait, profile, decode, replay,
// fault accounting, encode). Every runlog event written with
// Logger.EventCtx carries the context's trace IDs, so cmd/obsreport can
// reconstruct a single request's span tree from the JSONL run log.

// SpanContext identifies one span of one trace. IDs are 16-hex-digit
// strings; a root span has an empty ParentID.
type SpanContext struct {
	// TraceID is shared by every span of one request (or one CLI run).
	TraceID string
	// SpanID identifies this span.
	SpanID string
	// ParentID is the parent span's SpanID ("" for the root).
	ParentID string
}

// Valid reports whether the span context carries a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

// Annotate merges the span's IDs into a runlog field set (no-op for an
// invalid span).
func (sc SpanContext) Annotate(f Fields) {
	if !sc.Valid() {
		return
	}
	f["trace_id"] = sc.TraceID
	f["span_id"] = sc.SpanID
	if sc.ParentID != "" {
		f["parent_id"] = sc.ParentID
	}
}

// idState seeds the process's ID sequence: unique IDs without pulling in
// crypto/rand on the hot path. splitmix64 over a timestamp-seeded counter
// gives well-mixed 64-bit IDs; collisions across processes are as unlikely
// as the timestamp entropy allows, which is plenty for log correlation.
var (
	idSeed    = uint64(time.Now().UnixNano())
	idCounter atomic.Uint64
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewID returns a fresh 16-hex-digit span/trace ID.
func NewID() string {
	id := mix64(idSeed + idCounter.Add(1)*0x9E3779B97F4A7C15)
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = hexDigits[(id>>(60-4*i))&0xF]
	}
	return string(b[:])
}

// spanKey carries the active SpanContext in a context.Context.
type spanKey struct{}

// ContextWithSpan attaches sc as the context's active span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

// SpanFrom returns the context's active span (invalid zero value if none).
func SpanFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanKey{}).(SpanContext)
	return sc
}

// StartTrace begins a new trace rooted at a fresh span. traceID may pin the
// trace ID (e.g. from a client's X-Trace-Id header); empty generates one.
func StartTrace(ctx context.Context, traceID string) (context.Context, SpanContext) {
	if traceID == "" {
		traceID = NewID()
	}
	sc := SpanContext{TraceID: traceID, SpanID: NewID()}
	return ContextWithSpan(ctx, sc), sc
}

// ChildSpan mints a child span of the context's active span without
// attaching it — for leaf events (a design_point record) that need their
// own span identity but never hand the context on.
func ChildSpan(ctx context.Context) SpanContext {
	parent := SpanFrom(ctx)
	if !parent.Valid() {
		return SpanContext{TraceID: NewID(), SpanID: NewID()}
	}
	return SpanContext{TraceID: parent.TraceID, SpanID: NewID(), ParentID: parent.SpanID}
}

// ChildSpanIfTraced is ChildSpan when the context carries an active trace,
// and the invalid zero SpanContext (whose Annotate is a no-op) otherwise —
// untraced CLI runs keep their run-log records free of synthetic IDs.
func ChildSpanIfTraced(ctx context.Context) SpanContext {
	if !SpanFrom(ctx).Valid() {
		return SpanContext{}
	}
	return ChildSpan(ctx)
}

// EventCtx is Event with the context's trace identity merged in: the active
// span's trace_id/span_id/parent_id ride along on the record, so one
// request's events correlate across layers. A context without a span
// degrades to plain Event.
func (l *Logger) EventCtx(ctx context.Context, event string, fields Fields) {
	if l == nil {
		return
	}
	sc := SpanFrom(ctx)
	if !sc.Valid() {
		l.Event(event, fields)
		return
	}
	rec := make(Fields, len(fields)+3)
	for k, v := range fields {
		rec[k] = v
	}
	sc.Annotate(rec)
	l.Event(event, rec)
}

// Stages accumulates a request's per-stage wall time. One Stages rides the
// request context (ContextWithStages) from the HTTP handler down through
// profiling, block decode, and replay; each layer adds the time it spent,
// and the handler logs the breakdown on the final http_request event.
// Stage names repeat across a request (e.g. "decode" once per fan-out
// chunk); times accumulate per name. Safe for concurrent use — fan-out
// chunks of one sweep add from many goroutines.
type Stages struct {
	mu    sync.Mutex
	order []string
	ns    map[string]int64
}

// NewStages builds an empty accumulator.
func NewStages() *Stages {
	return &Stages{ns: map[string]int64{}}
}

// Add accumulates d under the stage name. Nil-safe: call sites need no
// guard when no breakdown was requested.
func (s *Stages) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ns[name]; !ok {
		s.order = append(s.order, name)
	}
	s.ns[name] += int64(d)
}

// Time starts a stage timer; the returned stop function adds the elapsed
// time. Nil-safe.
func (s *Stages) Time(name string) (stop func()) {
	if s == nil {
		return func() {}
	}
	start := time.Now()
	return func() { s.Add(name, time.Since(start)) }
}

// Snapshot returns the stages in first-recorded order with their
// accumulated durations.
func (s *Stages) Snapshot() (names []string, durations []time.Duration) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names = append([]string(nil), s.order...)
	durations = make([]time.Duration, len(names))
	for i, n := range names {
		durations[i] = time.Duration(s.ns[n])
	}
	return names, durations
}

// Total returns the sum of all stage durations.
func (s *Stages) Total() time.Duration {
	_, ds := s.Snapshot()
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// Fields renders the breakdown as a runlog field: a "stages" map of stage
// name to milliseconds. Returns nil when nothing was recorded, so callers
// can splice it conditionally.
func (s *Stages) Fields() Fields {
	names, ds := s.Snapshot()
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]float64, len(names))
	for i, n := range names {
		m[n] = float64(ds[i]) / float64(time.Millisecond)
	}
	return Fields{"stages": m}
}

// stagesKey carries the request's *Stages in a context.Context.
type stagesKey struct{}

// ContextWithStages attaches st to the context.
func ContextWithStages(ctx context.Context, st *Stages) context.Context {
	return context.WithValue(ctx, stagesKey{}, st)
}

// StagesFrom returns the context's stage accumulator (nil if none; the nil
// accumulator absorbs Add calls safely).
func StagesFrom(ctx context.Context) *Stages {
	if ctx == nil {
		return nil
	}
	st, _ := ctx.Value(stagesKey{}).(*Stages)
	return st
}

// AddStage accumulates d under name on the context's accumulator, if any.
func AddStage(ctx context.Context, name string, d time.Duration) {
	StagesFrom(ctx).Add(name, d)
}

// TimeStage starts a stage timer against the context's accumulator; the
// returned stop function records the elapsed time (no-op without one).
func TimeStage(ctx context.Context, name string) (stop func()) {
	return StagesFrom(ctx).Time(name)
}

// NewRunContext begins a CLI run's observability context: a fresh root
// trace plus an empty stage accumulator on parent. CLIs annotate their
// run_start/run_end events with the returned root span and fold the
// accumulator's Fields into run_end, giving offline runs the same
// stage-timing breakdown (profile/build/decode/replay/finish) the server
// logs per request.
func NewRunContext(parent context.Context) (context.Context, SpanContext, *Stages) {
	ctx, sc := StartTrace(parent, "")
	st := NewStages()
	return ContextWithStages(ctx, st), sc, st
}

// ParseTraceID validates a caller-supplied trace ID (1-32 hex digits),
// returning "" for anything else — the serving layer accepts client trace
// IDs but never echoes arbitrary strings into logs.
func ParseTraceID(s string) string {
	if len(s) == 0 || len(s) > 32 {
		return ""
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return ""
		}
	}
	return s
}
