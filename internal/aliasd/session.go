package aliasd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
	"aliaslimit/internal/topo"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// errQueueFull signals ingest backpressure (429 + Retry-After).
	errQueueFull = errors.New("ingest queue full")
	// errClosed signals a deleted or draining session (410).
	errClosed = errors.New("session closed")
	// errTimedOut signals the request deadline expired mid-operation (504).
	errTimedOut = errors.New("timed out")
	// errCapacity signals the session registry is full (503).
	errCapacity = errors.New("session capacity reached")
)

// SessionConfig is the tenant-supplied shape of one session (the POST
// /v1/sessions body).
type SessionConfig struct {
	// Backend labels the resolver: empty or "batch" (resolver.Name), the
	// one the daemon has. Any other value is refused.
	Backend string `json:"backend,omitempty"`
	// World, when true, builds a sealed measured environment instead of an
	// empty ingest session: the daemon generates a synthetic Internet at
	// Seed/Scale, runs both measurement campaigns, and serves the memoized
	// views. World sessions refuse ingest (409).
	World bool `json:"world,omitempty"`
	// Seed pins the world; 0 keeps the topo default. Ignored unless World.
	Seed uint64 `json:"seed,omitempty"`
	// Scale sizes the world; 0 picks 0.05. Ignored unless World.
	Scale float64 `json:"scale,omitempty"`
}

// ingestItem is one queued unit of work: an observation, or a flush marker
// that the worker acknowledges by closing the channel.
type ingestItem struct {
	obs   alias.Observation
	flush chan struct{}
}

// Session is one tenant's independent resolution state. Ingest sessions own
// a resolver session fed by a single worker goroutine draining a bounded
// queue; world-backed sessions own a sealed environment. Neither shares
// mutable state with any other session.
type Session struct {
	// ID is the registry key ("s1", "s2", …); seq its creation order.
	ID  string
	seq int

	cfg SessionConfig

	// env is the sealed environment of a world-backed session; nil for
	// ingest sessions.
	env *experiments.Env

	// rsess is the resolver session holding this tenant's live resolution
	// state (ingest sessions only — world sessions keep their state inside
	// env).
	rsess resolver.Session
	queue chan ingestItem
	done  chan struct{}
	hook  func()

	// sendMu guards queue sends against close; closed flips once.
	sendMu sync.RWMutex
	closed bool

	// received counts observations accepted into the queue; applied counts
	// observations landed in the resolver session.
	received atomic.Int64
	applied  atomic.Int64

	// viewMu guards the memoized snapshot; view is the analysis view as of
	// view.at applied observations.
	viewMu sync.Mutex
	view   *sessionView
}

// sortSessions orders sessions by creation sequence.
func sortSessions(ss []*Session) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].seq < ss[j].seq })
}

// createSession registers a new tenant. It fails when draining or at
// capacity; world-backed construction runs outside the registry lock so slow
// builds don't block other tenants.
func (s *Server) createSession(cfg SessionConfig) (*Session, error) {
	if cfg.Backend == "" {
		cfg.Backend = resolver.Name
	}
	if cfg.Backend != resolver.Name {
		return nil, fmt.Errorf("unknown backend %q (the daemon resolves with %q)", cfg.Backend, resolver.Name)
	}

	sess := &Session{cfg: cfg}
	if cfg.World {
		if cfg.Scale == 0 {
			cfg.Scale = 0.05
			sess.cfg.Scale = cfg.Scale
		}
		if cfg.Scale < 0 || cfg.Scale > s.cfg.MaxScale {
			return nil, fmt.Errorf("scale %v out of range (0, %v]", cfg.Scale, s.cfg.MaxScale)
		}
		env, err := buildWorld(cfg)
		if err != nil {
			return nil, err
		}
		sess.env = env
	} else {
		newSession := resolver.NewSession
		if s.cfg.newSession != nil {
			newSession = s.cfg.newSession
		}
		sess.rsess = newSession()
		sess.queue = make(chan ingestItem, s.cfg.QueueDepth)
		sess.done = make(chan struct{})
		sess.hook = s.cfg.applyHook
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errClosed
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, fmt.Errorf("%w (%d sessions)", errCapacity, s.cfg.MaxSessions)
	}
	s.nextID++
	sess.ID = fmt.Sprintf("s%d", s.nextID)
	sess.seq = s.nextID
	s.sessions[sess.ID] = sess
	if sess.queue != nil {
		go sess.loop()
	}
	return sess, nil
}

// buildWorld measures one tenant's private environment, mirroring the
// facade's option mapping (topo defaults, seed driving both generation and
// scan order).
func buildWorld(cfg SessionConfig) (*experiments.Env, error) {
	tc := topo.Default()
	if cfg.Seed != 0 {
		tc.Seed = cfg.Seed
	}
	tc.Scale = cfg.Scale
	return experiments.BuildEnv(experiments.Options{
		Topo: tc,
		Scan: experiments.ScanOptions{Seed: tc.Seed},
	})
}

// loop is the session worker: it drains the queue into the live resolver
// session, acknowledging flush markers in arrival order.
func (sess *Session) loop() {
	defer close(sess.done)
	for it := range sess.queue {
		if it.flush != nil {
			close(it.flush)
			continue
		}
		if sess.hook != nil {
			sess.hook()
		}
		sess.rsess.Observe(it.obs)
		sess.applied.Add(1)
	}
}

// offer enqueues one observation without blocking. errQueueFull asks the
// client to back off; errClosed means the session is gone.
func (sess *Session) offer(o alias.Observation) error {
	sess.sendMu.RLock()
	defer sess.sendMu.RUnlock()
	if sess.closed {
		return errClosed
	}
	select {
	case sess.queue <- ingestItem{obs: o}:
		sess.received.Add(1)
		return nil
	default:
		return errQueueFull
	}
}

// flush enqueues a marker and waits until the worker has applied everything
// queued before it, bounded by cancel.
func (sess *Session) flush(cancel <-chan struct{}) error {
	marker := ingestItem{flush: make(chan struct{})}
	sess.sendMu.RLock()
	if sess.closed {
		sess.sendMu.RUnlock()
		return errClosed
	}
	select {
	case sess.queue <- marker:
		sess.sendMu.RUnlock()
	case <-cancel:
		sess.sendMu.RUnlock()
		return errTimedOut
	}
	select {
	case <-marker.flush:
		return nil
	case <-cancel:
		return errTimedOut
	}
}

// close stops the worker after it finishes the observations already queued.
// Idempotent; a no-op for world-backed sessions.
func (sess *Session) close() {
	if sess.queue == nil {
		return
	}
	sess.sendMu.Lock()
	defer sess.sendMu.Unlock()
	if sess.closed {
		return
	}
	sess.closed = true
	close(sess.queue)
}

// drain applies every queued observation, then stops the worker — the
// SIGTERM path. Bounded by cancel.
func (sess *Session) drain(cancel <-chan struct{}) error {
	if sess.queue == nil {
		return nil
	}
	if err := sess.flush(cancel); err != nil && err != errClosed {
		return err
	}
	sess.close()
	select {
	case <-sess.done:
		return nil
	case <-cancel:
		return errTimedOut
	}
}

// sessionView is one memoized point-in-time analysis snapshot. An ingest
// session's view derives each partition lazily from its resolver session, so
// a sets read pays only for the partition it names; a world session's view
// holds the sealed env's partitions. The digests, and with them every
// partition, are derived at most once per view, on the first stats read.
type sessionView struct {
	at   int64
	live *scenario.SessionView // ingest sessions
	// parts holds every partition in scenario.PartitionNames order: from the
	// start for world sessions, after the first summary for ingest sessions.
	parts     []scenario.Partition
	summary   sync.Once
	digest    string
	breakdown []scenario.PartitionDigest
}

// partition returns one named partition, deriving only it (and its inputs)
// on an ingest session's first read.
func (v *sessionView) partition(name string) ([]alias.Set, bool) {
	if v.live != nil {
		return v.live.Partition(name)
	}
	i := slices.Index(scenario.PartitionNames, name)
	if i < 0 {
		return nil, false
	}
	return v.parts[i].Sets, true
}

// all returns every partition and their digests, deriving them once.
func (v *sessionView) all() ([]scenario.Partition, string, []scenario.PartitionDigest) {
	v.summary.Do(func() {
		if v.live != nil {
			v.parts = v.live.Partitions()
		}
		v.digest, v.breakdown = scenario.DigestPartitions(v.parts)
	})
	return v.parts, v.digest, v.breakdown
}

// snapshot returns the session's current analysis view, opening a new one
// only when observations have been applied since the cached one. World-backed
// sessions build one view (their applied count never moves) over the
// underlying env memoization. Derivation happens on read, outside viewMu.
func (sess *Session) snapshot() *sessionView {
	sess.viewMu.Lock()
	defer sess.viewMu.Unlock()
	at := sess.applied.Load()
	if sess.view != nil && sess.view.at == at {
		return sess.view
	}
	v := &sessionView{at: at}
	if sess.env != nil {
		v.parts = scenario.ScoredPartitions(sess.env)
	} else {
		v.live = scenario.NewSessionView(sess.rsess)
	}
	sess.view = v
	return v
}
