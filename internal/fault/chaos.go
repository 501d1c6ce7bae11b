package fault

// Action is a service-level fault decision for one call.
type Action int

// Service-fault actions a ServicePlan can order.
const (
	// ActNone lets the call through unharmed.
	ActNone Action = iota
	// ActPanic orders the worker to panic (a poisoned design point: every
	// call against the key panics).
	ActPanic
	// ActTransient orders a one-off failure for this call only (the store
	// chaos harness tears the append it decides on).
	ActTransient
)

// ServicePlan injects service-level faults deterministically by key: a
// fixed fraction of keys are poisoned (every call panics) and a fixed
// fraction of individual calls fail once. The serve chaos harness drives a
// server through a plan's poisoned keys to prove panic recovery and
// negative caching keep the process alive and contain each poisoned key to
// one evaluation; the store chaos harness tears appends on the one-off
// decisions.
//
// Decisions are pure functions of (Seed, key, call), so a plan replays
// identically across runs. Poisoning is a property of the key alone:
// repeating a poisoned key never helps, which is exactly the shape a
// negative cache entry remembers.
type ServicePlan struct {
	// Seed drives the deterministic decisions.
	Seed uint64
	// PanicFraction is the fraction of keys that are poisoned in [0, 1].
	PanicFraction float64
	// TransientFraction is the per-call probability of a one-off failure
	// on non-poisoned keys, in [0, 1].
	TransientFraction float64
}

// Poisoned reports whether every call against key panics under the plan.
func (p *ServicePlan) Poisoned(key string) bool {
	if p == nil || p.PanicFraction <= 0 {
		return false
	}
	return unit(hash(p.Seed, hashString(key), 0xdead)) < p.PanicFraction
}

// Decide returns the fault action for the call-th invocation against key.
func (p *ServicePlan) Decide(key string, call uint64) Action {
	if p == nil {
		return ActNone
	}
	if p.Poisoned(key) {
		return ActPanic
	}
	if p.TransientFraction > 0 &&
		unit(hash(p.Seed, hashString(key), 0xf1a4, call)) < p.TransientFraction {
		return ActTransient
	}
	return ActNone
}
