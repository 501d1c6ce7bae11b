package fault

import (
	"math"

	"hybridmem/internal/core"
	"hybridmem/internal/wear"
)

// DefaultPageBytes is the page-retirement granularity when Config.PageBytes
// is zero (a 4KB device page).
const DefaultPageBytes = 4096

// DefaultLineBytes is the fault-tracking line granularity (one 64B ECC
// word / cache sector).
const DefaultLineBytes = 64

// Config parameterizes the NVM device-fault model applied to a terminal
// memory. The zero value injects nothing; Seed makes every probabilistic
// decision deterministic (see the package comment).
type Config struct {
	// Seed drives all probabilistic decisions. Two evaluations of the same
	// stream with the same Seed produce identical Stats.
	Seed uint64
	// BitErrorRate is the transient (soft) bit-error probability per bit
	// accessed. Single-bit errors are corrected by the SECDED ECC model;
	// double-bit errors — and single-bit errors on a line whose ECC budget
	// is already consumed by a stuck cell — are detected-uncorrectable and
	// retire the containing page. Zero disables transient errors.
	BitErrorRate float64
	// EnduranceWrites is the mean number of writes a line endures before
	// developing a permanent stuck-at cell. Each line's actual threshold is
	// sampled deterministically in [E/2, 3E/2); at twice its threshold the
	// line degrades to a multi-bit stuck fault and its page is retired.
	// Zero disables wear-driven permanent faults.
	EnduranceWrites uint64
	// PageBytes is the retirement granularity (0 = DefaultPageBytes).
	PageBytes uint64
}

// withDefaults resolves a zero PageBytes.
func (c Config) withDefaults() Config {
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	return c
}

// Stats counts the fault model's outcomes over one memory's lifetime.
type Stats struct {
	// Accesses is the number of terminal accesses the model inspected.
	Accesses uint64
	// Corrected counts accesses whose error (a transient single-bit flip,
	// or a permanent stuck cell re-corrected on every access) was repaired
	// by ECC.
	Corrected uint64
	// Uncorrected counts detected-uncorrectable accesses: double-bit
	// transients, transients on stuck lines, and wear-out events. Each
	// retires the containing page.
	Uncorrected uint64
	// StuckLines is the number of lines that developed a permanent
	// stuck-at cell from write wear.
	StuckLines uint64
	// RetiredPages is the number of pages taken out of service.
	RetiredPages uint64
	// Remapped counts accesses served from retired pages' replacement
	// frames (the DRAM partition under NDM when the remap took effect,
	// spare capacity for terminals without a retirer). Accesses to a page
	// whose remap failed still hit the original module and are not counted.
	Remapped uint64
}

// Add returns the element-wise sum of two fault counters, for aggregating
// per-workload statistics into design totals.
func (s Stats) Add(o Stats) Stats {
	s.Accesses += o.Accesses
	s.Corrected += o.Corrected
	s.Uncorrected += o.Uncorrected
	s.StuckLines += o.StuckLines
	s.RetiredPages += o.RetiredPages
	s.Remapped += o.Remapped
	return s
}

// UncorrectedRate returns Uncorrected / Accesses (0 when idle) — the
// chaos harness bounds this.
func (s Stats) UncorrectedRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Uncorrected) / float64(s.Accesses)
}

// PageRetirer is implemented by memories that can gracefully remap a
// retired page onto healthy frames — core.PartitionedMemory (the NDM
// terminal) moves the page's routing and capacity to its DRAM partition.
type PageRetirer interface {
	// RetirePage removes [start, start+size) from the failing module,
	// reporting whether the page was newly retired.
	RetirePage(start, size uint64) bool
}

// FaultProber is implemented by hybrid terminals whose address space is
// only partially backed by fault-prone (NVM) devices —
// core.PartitionedMemory (the NDM terminal) reports its DRAM-side
// addresses as not fault-prone, so they draw no wear and no injected
// errors.
type FaultProber interface {
	// FaultProne reports whether addr lives on a device subject to the
	// fault model.
	FaultProne(addr uint64) bool
}

// Memory wraps a terminal core.Memory with the deterministic device-fault
// model: per-line write wear (via wear.Tracker) breeding permanent stuck-at
// cells, transient bit errors filtered by a SECDED ECC model, page
// retirement on uncorrectable errors, and graceful degradation by remapping
// retired pages (through PageRetirer when the terminal supports it).
type Memory struct {
	inner   core.Memory
	cfg     Config
	tracker *wear.Tracker
	retirer PageRetirer // non-nil when inner can remap (NDM)
	prober  FaultProber // non-nil when inner is only partially fault-prone
	seq     uint64      // per-memory access sequence for transient sampling
	stuck   map[uint64]uint8
	retired map[uint64]bool // page index -> remapped onto healthy frames
	stats   Stats
}

// Wrap returns mem wrapped with the fault model. If mem implements
// PageRetirer, retired pages are remapped through it; if mem implements
// FaultProber, only its fault-prone addresses draw wear and injected
// errors.
func Wrap(mem core.Memory, cfg Config) *Memory {
	cfg = cfg.withDefaults()
	m := &Memory{
		inner:   mem,
		cfg:     cfg,
		tracker: wear.NewTracker(DefaultLineBytes),
		stuck:   map[uint64]uint8{},
		retired: map[uint64]bool{},
	}
	if r, ok := mem.(PageRetirer); ok {
		m.retirer = r
	}
	if p, ok := mem.(FaultProber); ok {
		m.prober = p
	}
	return m
}

// threshold returns the line's sampled endurance threshold in [E/2, 3E/2),
// deterministic per (seed, line).
func (m *Memory) threshold(line uint64) uint64 {
	e := m.cfg.EnduranceWrites
	t := e/2 + uint64(unit(hash(m.cfg.Seed, line, 0x57ea7))*float64(e))
	if t == 0 {
		t = 1
	}
	return t
}

// retire takes the page out of service, remapping it when the terminal
// supports graceful degradation. A terminal without a retirer is assumed to
// hold spare frames; a retirer that refuses the remap (page outside its
// partition ranges) leaves the page retired-without-remap, so its traffic
// keeps counting against the original module rather than as Remapped.
func (m *Memory) retire(page uint64) {
	if _, ok := m.retired[page]; ok {
		return
	}
	remapped := true
	if m.retirer != nil {
		remapped = m.retirer.RetirePage(page*m.cfg.PageBytes, m.cfg.PageBytes)
	}
	m.retired[page] = remapped
	m.stats.RetiredPages++
}

// inject runs the fault model for one access. Terminal accesses never cross
// the line of the level above, so attributing the whole access to its first
// fault line is exact for cache-fed streams and a documented approximation
// for raw streams.
func (m *Memory) inject(addr, size uint64, write bool) {
	m.stats.Accesses++
	m.seq++
	if size == 0 {
		size = 1
	}
	line := addr / DefaultLineBytes
	page := addr / m.cfg.PageBytes
	if remapped, ok := m.retired[page]; ok {
		// A retired page injects no further faults: remapped pages live on
		// healthy replacement frames, and a page whose remap failed is
		// already maximally degraded. Only remapped traffic counts as such.
		if remapped {
			m.stats.Remapped++
		}
		return
	}
	if m.prober != nil && !m.prober.FaultProne(addr) {
		// The address is not backed by a fault-prone device (the DRAM side
		// of a hybrid terminal): no wear, no injected errors.
		return
	}

	// Wear-driven permanent faults: charge the write, then compare the
	// line's accumulated count against its sampled endurance threshold.
	if write && m.cfg.EnduranceWrites > 0 {
		m.tracker.RecordWrite(addr, size)
		c := m.tracker.Count(line)
		t := m.threshold(line)
		if m.stuck[line] == 0 && c >= t {
			m.stuck[line] = 1
			m.stats.StuckLines++
		}
		if m.stuck[line] == 1 && c >= 2*t {
			// Second cell fails: beyond SECDED, the write is lost and
			// the page is retired.
			m.stuck[line] = 2
			m.stats.Uncorrected++
			m.retire(page)
			return
		}
	}

	// Transient bit errors under SECDED: single-bit corrects, multi-bit
	// (or single-bit with the ECC budget consumed by a stuck cell) is
	// detected-uncorrectable. The error count per access is Poisson with
	// mean lambda = BER * bits; the exact terms P(>=1) = 1-e^-λ and
	// P(>=2) = 1-e^-λ-λe^-λ are used rather than the small-λ
	// approximations λ and λ²/2, which exceed 1 (and cross each other)
	// once BER * access bits grows large.
	sev := m.stuck[line]
	lambda := m.cfg.BitErrorRate * float64(size*8)
	if lambda <= 0 && sev == 0 {
		return
	}
	u := unit(hash(m.cfg.Seed, line, m.seq))
	pAny := -math.Expm1(-lambda)
	pMulti := pAny - lambda*math.Exp(-lambda)
	switch {
	case u < pMulti:
		m.stats.Uncorrected++
		m.retire(page)
	case u < pAny:
		if sev > 0 {
			m.stats.Uncorrected++
			m.retire(page)
		} else {
			m.stats.Corrected++
		}
	default:
		if sev > 0 {
			// ECC silently re-corrects the stuck cell on every access.
			m.stats.Corrected++
		}
	}
}

// Load implements core.Memory.
func (m *Memory) Load(addr, sizeBytes uint64) {
	m.inject(addr, sizeBytes, false)
	m.inner.Load(addr, sizeBytes)
}

// Store implements core.Memory.
func (m *Memory) Store(addr, sizeBytes uint64) {
	m.inject(addr, sizeBytes, true)
	m.inner.Store(addr, sizeBytes)
}

// Modules implements core.Memory by delegating to the wrapped terminal.
func (m *Memory) Modules() []core.LevelStats { return m.inner.Modules() }

// FaultStats returns the accumulated fault counters.
func (m *Memory) FaultStats() Stats { return m.stats }
