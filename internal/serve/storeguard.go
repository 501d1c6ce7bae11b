package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"hybridmem/internal/fault"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
)

// Store states reported by StoreGuard.State, the memsimd_store_state gauge,
// and /readyz.
const (
	// StoreStateOK means the durable tier is accepting reads and writes.
	StoreStateOK = "ok"
	// StoreStateDegraded means the store was wounded and quarantined;
	// serving continues cache/replay-only while a background reopen
	// restores durability.
	StoreStateDegraded = "degraded"
)

// errStoreDegraded is returned by StoreGuard operations while the store is
// quarantined. Callers treat it as a clean miss (reads) or an expected
// dropped write — not an error worth a warning per request.
var errStoreDegraded = errors.New("serve: durable store degraded; reopen in progress")

// StoreGuard routes all durable-tier traffic through a wounded-store
// self-healing layer. A store whose append path fails sticks every later
// write with store.ErrWounded; without intervention one bad sector or
// full disk silently downgrades durability for the rest of the process
// lifetime. The guard turns that into a supervised degraded state:
//
//  1. On a wound, the failing instance is sealed (store.Seal) — it issues
//     no further writes but keeps its mmap'd segments valid for profiles
//     restored from it — and the guard flips to StoreStateDegraded.
//     Serving continues cache/replay-only, exactly as with no store.
//  2. A background goroutine reopens the directory with equal-jitter
//     backoff (fault.RetryPolicy.Delay). Reopen performs the normal
//     torn-tail recovery, so committed data survives and the uncommitted
//     tail of the failed append is truncated.
//  3. On success the fresh instance becomes the directory's only writer,
//     the guard flips back to StoreStateOK, and write-through resumes.
//
// Every transition is recorded: store_wound / store_reopen_failed /
// store_heal run-log events, memsimd.store_wounds and memsimd.store_heals
// counters, and the memsimd_store_state gauge (1 on the current state's
// label). A nil *StoreGuard behaves as "no store": reads miss, writes
// report errStoreDegraded.
type StoreGuard struct {
	reopen  func() (*store.Store, error)
	backoff fault.RetryPolicy
	log     *obs.Logger

	// ctx is canceled, under mu, when Close begins: it ends the heal in
	// flight, which healing tracks, and starts no new one.
	ctx     context.Context
	cancel  context.CancelFunc
	healing sync.WaitGroup

	mu     sync.Mutex
	cur    *store.Store   // nil while degraded
	sealed []*store.Store // wounded instances kept alive for their mmaps

	wounds *obs.Counter
	heals  *obs.Counter
}

// NewStoreGuard supervises st. reopen produces a replacement instance on
// the same directory after a wound; nil means no self-healing — a wound
// degrades the guard for the rest of the process lifetime. backoff paces
// reopen attempts (25ms doubling to 2s, equal jitter); its Sleep hook
// makes healing instant under test. log may be nil.
func NewStoreGuard(st *store.Store, reopen func() (*store.Store, error), backoff fault.RetryPolicy, log *obs.Logger) *StoreGuard {
	g := &StoreGuard{
		reopen:  reopen,
		backoff: backoff,
		log:     log,
		cur:     st,
		wounds:  obs.NewCounter("memsimd.store_wounds"),
		heals:   obs.NewCounter("memsimd.store_heals"),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	obs.RegisterGaugeVecFunc("memsimd.store_state",
		"Durable store state (1 on the active state's label).", "state",
		func() map[string]float64 {
			m := map[string]float64{StoreStateOK: 0, StoreStateDegraded: 0}
			m[g.State()] = 1
			return m
		})
	return g
}

// State reports the guard's current state, StoreStateOK or
// StoreStateDegraded. A nil guard reports degraded: there is no durable
// tier to write to.
func (g *StoreGuard) State() string {
	if g == nil {
		return StoreStateDegraded
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur == nil {
		return StoreStateDegraded
	}
	return StoreStateOK
}

// current returns the live store, or nil while degraded.
func (g *StoreGuard) current() *store.Store {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// GetDoc reads a document from the durable tier; degraded is a miss.
func (g *StoreGuard) GetDoc(key string) ([]byte, bool, error) {
	st := g.current()
	if st == nil {
		return nil, false, nil
	}
	val, ok, err := st.GetDoc(key)
	g.observe(st, err)
	return val, ok, err
}

// PutDoc writes a document through to the durable tier, or reports
// errStoreDegraded while quarantined.
func (g *StoreGuard) PutDoc(key string, val []byte) error {
	st := g.current()
	if st == nil {
		return errStoreDegraded
	}
	err := st.PutDoc(key, val)
	g.observe(st, err)
	return err
}

// GetStream reads a packed stream from the durable tier; degraded is a
// miss.
func (g *StoreGuard) GetStream(key string) (*trace.Packed, []byte, bool, error) {
	st := g.current()
	if st == nil {
		return nil, nil, false, nil
	}
	p, meta, ok, err := st.GetStream(key)
	g.observe(st, err)
	return p, meta, ok, err
}

// PutStream writes a packed stream through to the durable tier, or reports
// errStoreDegraded while quarantined.
func (g *StoreGuard) PutStream(key string, p *trace.Packed, meta []byte) error {
	st := g.current()
	if st == nil {
		return errStoreDegraded
	}
	err := st.PutStream(key, p, meta)
	g.observe(st, err)
	return err
}

// Stats summarizes the live store; degraded reports zeros.
func (g *StoreGuard) Stats() store.Stats {
	st := g.current()
	if st == nil {
		return store.Stats{}
	}
	return st.Stats()
}

// Close ends any heal in flight — it makes no further reopen attempt, and
// a reopen already running is closed, not installed — then releases the
// live store and every sealed instance. Mapped block slices handed out by
// any of them are invalid afterwards, so this runs only at process
// shutdown.
func (g *StoreGuard) Close() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	g.cancel()
	g.mu.Unlock()
	g.healing.Wait()
	g.mu.Lock()
	cur := g.cur
	sealed := g.sealed
	g.cur, g.sealed = nil, nil
	g.mu.Unlock()
	var err error
	if cur != nil {
		err = cur.Close()
	}
	for _, st := range sealed {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// observe inspects an operation's error and quarantines st when it shows
// the store is wounded (its append path failed and every further write
// would fail too). Benign errors — misses, decode failures, degraded
// sentinels — pass through untouched.
func (g *StoreGuard) observe(st *store.Store, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, store.ErrWounded) && !errors.Is(err, store.ErrSimulatedCrash) {
		return
	}
	g.mu.Lock()
	if g.cur != st {
		// A stale reference: this instance was already quarantined.
		g.mu.Unlock()
		return
	}
	g.cur = nil
	g.sealed = append(g.sealed, st)
	// The guard stays degraded until the heal installs a store, so no
	// second wound can start a second heal meanwhile.
	startHeal := g.reopen != nil && g.ctx.Err() == nil
	if startHeal {
		g.healing.Add(1)
	}
	g.mu.Unlock()

	st.Seal()
	g.wounds.Add(1)
	if g.log != nil {
		g.log.Warn("store_wound", obs.Fields{
			"err":   err.Error(),
			"state": StoreStateDegraded,
			"heal":  startHeal,
		})
	}
	if startHeal {
		go g.heal()
	}
}

// heal reopens the store directory until it succeeds or Close ends it,
// pacing attempts with the guard's equal-jitter backoff. Reopen
// performs torn-tail recovery, so the healed instance serves every record
// committed before the wound.
func (g *StoreGuard) heal() {
	defer g.healing.Done()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		st, err := g.reopen()
		if err == nil {
			g.mu.Lock()
			if g.ctx.Err() != nil { // closed while reopening
				g.mu.Unlock()
				st.Close()
				return
			}
			g.cur = st
			g.mu.Unlock()
			g.heals.Add(1)
			if g.log != nil {
				stats := st.Stats()
				g.log.Event("store_heal", obs.Fields{
					"state":                StoreStateOK,
					"attempts":             attempt,
					"wall_ms":              float64(time.Since(start)) / float64(time.Millisecond),
					"torn_bytes_recovered": stats.TornBytesRecovered,
					"streams":              stats.Streams,
					"docs":                 stats.Docs,
				})
			}
			return
		}
		if g.log != nil {
			g.log.Warn("store_reopen_failed", obs.Fields{"attempt": attempt, "err": err.Error()})
		}
		_ = g.backoff.Wait(g.ctx, "store-reopen", attempt) // ends early once Close cancels ctx
		if g.ctx.Err() != nil {
			return
		}
	}
}
