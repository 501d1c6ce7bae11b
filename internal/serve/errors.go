package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Error codes returned in the "error.code" field of failed responses.
// Clients should branch on these rather than on messages or HTTP status.
const (
	// CodeInvalidRequest marks malformed JSON or out-of-range fields.
	CodeInvalidRequest = "invalid_request"
	// CodeUnknownWorkload marks a workload name not in the catalog.
	CodeUnknownWorkload = "unknown_workload"
	// CodeUnknownDesign marks an unknown design family or table row.
	CodeUnknownDesign = "unknown_design"
	// CodeUnknownTech marks an unknown memory technology name, or a known
	// technology requested on a design axis its catalog class does not
	// serve (e.g. PCM as a fourth-level cache).
	CodeUnknownTech = "unknown_tech"
	// CodeCatalogMismatch means the request pinned catalog_version to a
	// version the server is not serving. Do not retry; re-issue without
	// the pin or against a server running the expected catalog.
	CodeCatalogMismatch = "catalog_mismatch"
	// CodeAnalyticUnsupported rejects an analytic-fidelity request for a
	// design outside the analytic model (partitioned NDM or row-buffer
	// terminals, multi-level or write-through or prefetching back-end
	// caches, off-sketch page sizes). Re-issue with fidelity "exact".
	CodeAnalyticUnsupported = "analytic_unsupported"
	// CodeOverloaded means the in-flight evaluation limit is reached;
	// retry after the Retry-After header's delay.
	CodeOverloaded = "overloaded"
	// CodeRateLimited means this client's token bucket is empty; the
	// request never reached the evaluator. RetryAfterMS is the actual
	// bucket refill time, so retrying after it will be admitted (absent
	// competing traffic from the same client).
	CodeRateLimited = "rate_limited"
	// CodeWouldDeadline means the request's propagated deadline
	// (X-Memsimd-Deadline-Ms) leaves less time than the server's live
	// estimate of the service time, so the work was shed on arrival
	// instead of occupying a replay slot it was doomed to waste. Retry
	// with a longer deadline, or not at all.
	CodeWouldDeadline = "would_deadline"
	// CodeTimeout means the per-request deadline expired; the in-flight
	// replay was aborted.
	CodeTimeout = "timeout"
	// CodeCanceled means the client went away mid-evaluation.
	CodeCanceled = "canceled"
	// CodeShuttingDown means the server is draining and accepts no new
	// evaluations.
	CodeShuttingDown = "shutting_down"
	// CodePanic means the evaluation panicked and was recovered; the
	// process survived and the failing design point returned this typed
	// error instead. The failure is a property of the request: the server
	// remembers it as a negative entry and answers repeats with the same
	// error (X-Memsimd-Cache: negative) without evaluating again.
	CodePanic = "eval_panic"
	// CodeInternal marks unexpected evaluation failures. Like CodePanic
	// the failure is a property of the request and is remembered as a
	// negative entry.
	CodeInternal = "internal"
)

// APIError is the typed error body of every non-200 response:
//
//	{"error": {"code": "invalid_request", "field": "scale", "message": "..."}}
//
// # Client retry contract
//
// A request has three outcomes: it is answered (200), refused with retry
// guidance, or fails permanently. An evaluation is a pure function of its
// request, so no failure is transient.
//
// Refusals say nothing about the request and are never remembered. The
// retryable ones carry backoff guidance: RetryAfterMS is the base delay
// before the next attempt and JitterMS the width of a uniform random
// spread to add on top (sleep RetryAfterMS + rand[0, JitterMS)), so a
// fleet of clients retrying the same refusal decorrelates instead of
// stampeding. The Retry-After response header repeats RetryAfterMS
// rounded up to whole seconds for generic HTTP clients.
//
//   - CodeOverloaded (429): retry with the given backoff.
//   - CodeRateLimited (429): this client exceeded its admission rate;
//     RetryAfterMS is the exact bucket refill time, so earlier retries
//     are wasted round trips.
//   - CodeShuttingDown (503): this process is draining; retry against the
//     fleet after the given backoff and another instance will serve it.
//   - CodeTimeout (504): retry only with a smaller request (larger
//     workload_scale) — the same request will time out again.
//   - CodeWouldDeadline (503): the offered deadline cannot be met; retry
//     only with a longer X-Memsimd-Deadline-Ms.
//
// Permanent failures — CodePanic (500), CodeInternal (500), and all 4xx
// codes — are a deterministic property of the request: do not retry. The
// server remembers a 500 as a negative entry and answers repeats with a
// byte-identical body, marked X-Memsimd-Cache: negative, until
// NegativeTTL expires.
//
// Earlier servers also sent 503 circuit_open after repeated failures of a
// design and 503 retry_budget when a shared budget cut their own retries.
// Neither code is sent any more, and circuit_open is deliberately not kept
// as an alias for negative answers: it told clients to retry after a
// cooldown, while a remembered failure will fail the same way every time.
type APIError struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Field names the offending request field, when one is identifiable.
	Field string `json:"field,omitempty"`
	// Message is a human-readable explanation.
	Message string `json:"message"`
	// RetryAfterMS is the suggested base backoff in milliseconds before
	// retrying (0 = no retry guidance).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// JitterMS is the suggested uniform jitter width to add to
	// RetryAfterMS (see the client retry contract above).
	JitterMS int64 `json:"jitter_ms,omitempty"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Field != "" {
		return e.Code + " (" + e.Field + "): " + e.Message
	}
	return e.Code + ": " + e.Message
}

// errField builds an APIError pinned to one request field.
func errField(code, field, msg string) *APIError {
	return &APIError{Code: code, Field: field, Message: msg}
}

// httpStatus maps an error code to its HTTP status.
func httpStatus(code string) int {
	switch code {
	case CodeInvalidRequest, CodeUnknownTech, CodeCatalogMismatch, CodeAnalyticUnsupported:
		return http.StatusBadRequest
	case CodeUnknownWorkload, CodeUnknownDesign:
		return http.StatusNotFound
	case CodeOverloaded, CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeTimeout, CodeCanceled:
		return http.StatusGatewayTimeout
	case CodeShuttingDown, CodeWouldDeadline:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the typed error JSON with its mapped status, repeating
// any retry guidance in a Retry-After header (whole seconds, rounded up)
// for clients that only speak HTTP.
func writeError(w http.ResponseWriter, apiErr *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if apiErr.RetryAfterMS > 0 {
		secs := (apiErr.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	} else if apiErr.Code == CodeOverloaded || apiErr.Code == CodeRateLimited {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(httpStatus(apiErr.Code))
	json.NewEncoder(w).Encode(struct {
		Error *APIError `json:"error"`
	}{apiErr})
}
