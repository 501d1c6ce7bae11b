package fault

// ServicePlan injects service-level faults deterministically by key: a
// fixed fraction of keys are poisoned, and every evaluation of a poisoned
// key panics. The serve chaos harness and memsimd -chaos-panic drive a
// server through a plan's poisoned keys to prove panic recovery and
// negative caching keep the process alive and contain each poisoned key to
// one evaluation. Poisoning is a pure function of (Seed, key), so a plan
// replays identically and repeating a poisoned key never helps — exactly
// the shape a negative cache entry remembers.
type ServicePlan struct {
	// Seed drives the deterministic decisions.
	Seed uint64
	// PanicFraction is the fraction of keys that are poisoned in [0, 1].
	PanicFraction float64
}

// Poisoned reports whether every call against key panics under the plan.
func (p *ServicePlan) Poisoned(key string) bool {
	if p == nil || p.PanicFraction <= 0 {
		return false
	}
	return unit(hash(p.Seed, hashString(key), 0xdead)) < p.PanicFraction
}
