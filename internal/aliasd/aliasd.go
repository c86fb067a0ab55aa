// Package aliasd is the resolution-as-a-service layer: a long-running HTTP
// daemon that wraps the repository's alias-resolution library for many
// concurrent tenants, turning the one-shot CLI pipeline into a server that
// ingests observation streams and answers alias-set queries online.
//
// # Architecture
//
// The server manages independent per-tenant Sessions (POST /v1/sessions).
// A session owns its own resolver state, seed, and — for world-backed
// sessions — its own simulated Internet, so tenants never share mutable
// state. Two session flavours exist:
//
//   - Ingest sessions accept NDJSON observation streams (POST /v1/ingest,
//     one obsfile.Record per line, read by obsfile.Decoder as
//     obsfile.Read reads files) into a bounded queue drained by a
//     dedicated worker into an open resolver session, which groups each
//     observation as it is applied. A query arriving mid-ingest sees the
//     canonical partition of every observation applied so far, and the
//     final partitions are byte-identical to a sealed run over the same
//     observations — the same sets_digest, computed through
//     scenario.DigestPartitions.
//   - World-backed sessions ({"world": true}) build a sealed, fully
//     measured environment at the requested seed and scale and serve its
//     memoized analysis views (sets, stats, per-AS aggregation) without
//     recomputation.
//
// The query API (GET /v1/sets, /v1/stats, /v1/asview, /v1/scenarios/{name})
// reads those views; scenario and longitudinal runs are memoized per option
// tuple so concurrent users share one computation.
//
// # Graceful degradation
//
// Load shedding is explicit: a full ingest queue answers 429 with a
// Retry-After header and the count of lines already accepted (backpressure,
// not silent drops); session capacity answers 503; Config.RequestTimeout
// bounds every request; and Shutdown drains each session's queue before the
// process exits, so accepted observations are never lost on SIGTERM.
package aliasd

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"aliaslimit/internal/resolver"
)

// Config tunes the daemon. The zero value serves with the defaults below.
type Config struct {
	// MaxSessions bounds concurrent tenants; creation beyond it answers
	// 503. 0 picks 64.
	MaxSessions int
	// QueueDepth is each session's ingest-queue capacity in observations;
	// a full queue answers 429 + Retry-After. 0 picks 8192.
	QueueDepth int
	// RequestTimeout bounds every request (504 on expiry); 0 disables.
	// World-backed session creation and scenario runs are the slow
	// requests — size it for them, not for queries.
	RequestTimeout time.Duration
	// MaxScale caps world-backed session and scenario world sizes so one
	// tenant cannot occupy the process with a giant build. 0 picks 1.0.
	MaxScale float64

	// applyHook, when set, runs before each observation is applied by a
	// session worker — a test hook for holding the queue saturated.
	applyHook func()
	// newSession, when set, opens each ingest session's resolver session in
	// place of resolver.NewSession — a test hook for counting derivations.
	newSession func() resolver.Session
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8192
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
	return c
}

// Server is the daemon: a session registry plus the HTTP API over it.
// Create one with NewServer, mount Handler on an http.Server, and call
// Shutdown to drain.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	draining bool

	scenMu       sync.Mutex
	scenarioRuns map[string]*scenarioRun

	handler http.Handler
}

// NewServer builds a daemon with no sessions.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:          cfg.withDefaults(),
		sessions:     make(map[string]*Session),
		scenarioRuns: make(map[string]*scenarioRun),
	}
	s.handler = s.buildHandler()
	return s
}

// Handler returns the daemon's HTTP API, wrapped in the configured request
// timeout.
func (s *Server) Handler() http.Handler { return s.handler }

// lookup resolves a session by id.
func (s *Server) lookup(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %q", id)
	}
	return sess, nil
}

// list snapshots the registry in creation order.
func (s *Server) list() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	sortSessions(out)
	return out
}

// remove deletes a session from the registry and stops its worker. The
// worker finishes the observations already queued before exiting.
func (s *Server) remove(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown session %q", id)
	}
	sess.close()
	return nil
}

// Shutdown drains the daemon: new sessions and ingests are refused (503),
// every queued observation is applied, and every session worker has exited
// when it returns. It respects the deadline of ctx and reports the first
// session that could not drain in time.
func (s *Server) Shutdown(ctx interface{ Done() <-chan struct{} }) error {
	s.mu.Lock()
	s.draining = true
	open := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()

	sortSessions(open)
	for _, sess := range open {
		if err := sess.drain(ctx.Done()); err != nil {
			return fmt.Errorf("draining session %s: %w", sess.ID, err)
		}
	}
	return nil
}
