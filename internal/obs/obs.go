// Package obs is the simulator's observability layer: epoch-sampled
// time-series statistics, structured JSONL run logs, and profiling hooks.
//
// The paper's instrument is an online reference stream (PEBIL-instrumented
// binaries feeding a cache simulator), but end-of-run aggregate counters
// hide phase behaviour — the very thing that distinguishes Graph500's BFS
// waves or Velvet's graph construction from the steady-state NPB kernels.
// This package adds the standard observability layer for this class of
// simulator:
//
//   - EpochSampler tees references into a hierarchy and, every N
//     references, diffs the hierarchy's cumulative snapshot against the
//     previous epoch, producing a per-level time-series of hit rate, MPKI,
//     bytes moved, and dirty write-back traffic. The per-reference path is
//     a counter increment and a forward — no allocation, no snapshot.
//   - Logger emits structured JSON-lines events (run/workload/design-point
//     boundaries, durations, refs/sec throughput, config echo, warnings)
//     behind any io.Writer, so CLIs can log to stderr or a file.
//   - Profile wires the standard -cpuprofile/-memprofile/-trace flags.
//   - DefaultRegistry is the one metric registry: counters, labeled
//     vectors, log2 histograms and computed gauges are named once there
//     and rendered in Prometheus text format by MetricsHandler (memsimd's
//     GET /metrics), including live counters of references processed and
//     boundary blocks decoded.
//
// Everything is opt-in: with no sampler wrapped and a nil Logger, the
// simulator hot path is untouched.
package obs

// refsProcessed counts simulated references processed by epoch samplers
// and profiling passes (memsimd_refs_processed on /metrics). Scrape it
// (or read it in-process) to watch a long sweep make progress.
var refsProcessed = NewCounter("memsimd.refs_processed")

// blocksDecoded counts packed boundary blocks decoded by the replay engine
// (memsimd_blocks_decoded on /metrics). Under fan-out replay each block
// is decoded once per workload chunk regardless of how many design points
// consume it, so the ratio of this counter to replayed references is the
// direct observable for the decode-sharing win.
var blocksDecoded = NewCounter("memsimd.blocks_decoded")

// CountRefs adds n processed references to the live counter.
func CountRefs(n uint64) { refsProcessed.Add(n) }

// RefsProcessed returns the live counter's current value.
func RefsProcessed() uint64 { return refsProcessed.Value() }

// CountDecodedBlocks adds n decoded boundary blocks to the live counter.
func CountDecodedBlocks(n uint64) { blocksDecoded.Add(n) }

// DecodedBlocks returns the decoded-block counter's current value.
func DecodedBlocks() uint64 { return blocksDecoded.Value() }
