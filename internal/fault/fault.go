// Package fault is the deterministic fault-injection and resilience layer:
// it spans the simulator (an injectable NVM device-fault model with ECC,
// page retirement, and graceful degradation) and the serving path (typed
// panic capture, deterministic chaos plans, and the jittered backoff that
// paces store reopens).
//
// # Determinism
//
// Every random decision in this package derives from a pure hash of a
// caller-supplied seed and the decision's own coordinates (line index,
// access sequence number, retry attempt) rather than from a shared PRNG
// stream. Two runs with the same seed over the same reference stream
// therefore produce bit-identical fault statistics regardless of goroutine
// scheduling or evaluation order — the property the chaos harness
// (`make chaos`) asserts.
//
// # Error taxonomy
//
//   - TransientError marks infrastructure-shaped failures that a later
//     attempt may cure. Nothing remembers them: the serving layer never
//     caches a transient failure as a negative entry.
//   - PanicError is a recovered panic converted into a value that flows
//     through ordinary error returns; RecoverTo installs the conversion at
//     harness boundaries (exp.ProfileWorkloadOpts, exp.EvaluateCtx, the
//     serve evaluation path), so a malformed design point fails one request
//     instead of the process.
//
// Device-level uncorrectable errors are deliberately NOT transient:
// replaying the same deterministic stream reproduces them, so retrying is
// wasted work — they surface in Stats and in the evaluation's fault
// metrics instead.
package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// mix64 is the SplitMix64 finalizer: a cheap, high-quality 64-bit bijection
// used to turn structured coordinates into uniform bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds any number of 64-bit coordinates into one deterministic hash.
func hash(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return h
}

// hashString folds a string into a 64-bit coordinate (FNV-1a, then mixed).
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}

// unit maps a hash to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// TransientError marks a failure that a later attempt may cure: a spurious
// infrastructure error — anything whose cause is not a deterministic
// property of the request itself. The serving layer answers it with retry
// guidance and never caches it.
type TransientError struct {
	// Op names the operation that failed.
	Op string
	// Err is the underlying cause (may be nil).
	Err error
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	if e.Err == nil {
		return "transient fault: " + e.Op
	}
	return "transient fault: " + e.Op + ": " + e.Err.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as a retryable transient failure of op.
func Transient(op string, err error) error {
	return &TransientError{Op: op, Err: err}
}

// IsTransient reports whether err is, or wraps, a TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// PanicError is a panic recovered at a harness boundary and converted into
// an ordinary error: the request that triggered it fails with a typed
// value while the process (and its worker pool) survives.
type PanicError struct {
	// Op names the operation that panicked (e.g. `evaluate NMM/N6/PCM`).
	Op string
	// Value is the recovered panic value. When kernels panic with a typed
	// error (workload.RegionError, wear.LineError), Value carries it and
	// Unwrap exposes it to errors.As.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Op, e.Value)
}

// Unwrap exposes a panic value that is itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// RecoverTo converts an in-flight panic into a *PanicError stored in *errp.
// Use it as a deferred call at a boundary that must not die with its
// workload:
//
//	func evaluate(...) (err error) {
//	    defer fault.RecoverTo(&err, "evaluate "+name)
//	    ...
//	}
//
// A panic that unwinds through RecoverTo overwrites any error already in
// *errp; if no panic is in flight, *errp is untouched.
func RecoverTo(errp *error, op string) {
	if v := recover(); v != nil {
		*errp = &PanicError{Op: op, Value: v, Stack: debug.Stack()}
	}
}
