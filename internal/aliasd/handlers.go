package aliasd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"unicode/utf8"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/asview"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
)

// buildHandler assembles the versioned API routes.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStats)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/flush", s.handleFlush)
	mux.HandleFunc("GET /v1/sets", s.handleSets)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/asview", s.handleASView)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarioList)
	mux.HandleFunc("GET /v1/scenarios/{name}", s.handleScenarioRun)
	if s.cfg.RequestTimeout > 0 {
		return http.TimeoutHandler(mux, s.cfg.RequestTimeout,
			`{"error":"request timed out"}`)
	}
	return mux
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
	// Accepted reports partial ingest acceptance on backpressure responses.
	Accepted int `json:"accepted,omitempty"`
}

// writeError maps an error to its JSON response and status code.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// handleHealthz reports liveness and registry size.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n, draining := len(s.sessions), s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": n,
		"draining": draining,
	})
}

// sessionInfo is the public shape of one session.
type sessionInfo struct {
	ID      string  `json:"id"`
	Backend string  `json:"backend"`
	World   bool    `json:"world"`
	Seed    uint64  `json:"seed,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
}

// info summarises a session.
func (sess *Session) info() sessionInfo {
	return sessionInfo{
		ID:      sess.ID,
		Backend: sess.cfg.Backend,
		World:   sess.cfg.World,
		Seed:    sess.cfg.Seed,
		Scale:   sess.cfg.Scale,
	}
}

// maxSessionConfigBytes bounds how much of a POST /v1/sessions body the
// config decoder reads; a session config is a handful of short fields.
const maxSessionConfigBytes = 64 << 10

// handleCreateSession registers a tenant. An empty body picks an ingest
// session; a config running past maxSessionConfigBytes answers 413.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	body := http.MaxBytesReader(w, r.Body, maxSessionConfigBytes)
	if err := json.NewDecoder(body).Decode(&cfg); err != nil && err != io.EOF {
		code := http.StatusBadRequest
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("parsing session config: %w", err))
		return
	}
	sess, err := s.createSession(cfg)
	if err != nil {
		code := http.StatusBadRequest
		if err == errClosed || errors.Is(err, errCapacity) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

// handleListSessions lists sessions in creation order.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	infos := []sessionInfo{}
	for _, sess := range s.list() {
		infos = append(infos, sess.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

// handleDeleteSession removes a tenant; its worker finishes queued
// observations and exits.
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.remove(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sessionFrom resolves the session named by the request (the ?session query
// parameter, or the {id} path value on session-scoped routes), writing the
// 4xx itself on failure.
func (s *Server) sessionFrom(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	if id == "" {
		id = r.URL.Query().Get("session")
	}
	if id == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing session parameter"))
		return nil
	}
	sess, err := s.lookup(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil
	}
	return sess
}

// ingestReply is the ingest endpoint's success payload.
type ingestReply struct {
	// Accepted counts this request's lines landed in the queue; Received and
	// Applied are the session's running totals.
	Accepted int   `json:"accepted"`
	Received int64 `json:"received"`
	Applied  int64 `json:"applied"`
}

// handleIngest streams NDJSON observations (the obsfile wire format, read by
// obsfile.Decoder as obsfile.Read reads it) into the session's bounded
// queue. A malformed record answers 400 with the decoder's "line N: <cause>"
// text, and a record longer than obsfile.MaxRecordBytes answers 413 with the
// same text. A full queue stops mid-stream and answers 429 + Retry-After.
// Each of these replies carries the count of records already accepted —
// explicit backpressure, never silent drops.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFrom(w, r)
	if sess == nil {
		return
	}
	if sess.env != nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("session %s is world-backed and refuses ingest", sess.ID))
		return
	}
	dec := obsfile.NewDecoder(r.Body)
	accepted := 0
	for {
		o, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, obsfile.ErrRecordTooLong) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, errorBody{Error: err.Error(), Accepted: accepted})
			return
		}
		switch err := sess.offer(o); err {
		case nil:
			accepted++
		case errQueueFull:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{
				Error:    err.Error(),
				Accepted: accepted,
			})
			return
		default:
			writeJSON(w, http.StatusGone, errorBody{Error: err.Error(), Accepted: accepted})
			return
		}
	}
	writeJSON(w, http.StatusOK, ingestReply{
		Accepted: accepted,
		Received: sess.received.Load(),
		Applied:  sess.applied.Load(),
	})
}

// handleFlush blocks until every observation queued before it has been
// applied, making a following query deterministic.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFrom(w, r)
	if sess == nil {
		return
	}
	if sess.env != nil { // world sessions are always settled
		writeJSON(w, http.StatusOK, map[string]int64{"applied": 0})
		return
	}
	if err := sess.flush(r.Context().Done()); err != nil {
		code := http.StatusGone
		if err == errTimedOut {
			code = http.StatusGatewayTimeout
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"applied": sess.applied.Load()})
}

// handleSets serves one named alias-set partition (one of
// scenario.PartitionNames) as sorted address lists. It derives only that
// partition, once per applied count, and appends the reply's bytes directly.
func (s *Server) handleSets(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFrom(w, r)
	if sess == nil {
		return
	}
	name := r.URL.Query().Get("view")
	sets, ok := sess.snapshot().partition(name)
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown view %q (have: %v)", name, scenario.PartitionNames))
		return
	}
	buf := replyBufs.Get().(*[]byte)
	*buf = appendSetsReply((*buf)[:0], sess.ID, name, sets)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*buf) // a failed write means the client left; there is no one to tell
	replyBufs.Put(buf)
}

// replyBufs recycles /v1/sets reply buffers between requests; a Write never
// keeps the slice it is given.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendSetsReply appends the /v1/sets reply to dst: the bytes writeJSON
// gives the object {"session", "view", "count", "sets"}, with encoding/json's
// sorted keys, its two-space indent with one address per line, [] for an
// empty list and the trailing newline, but with no reflection and no string
// per address.
func appendSetsReply(dst []byte, session, view string, sets []alias.Set) []byte {
	dst = append(dst, "{\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(len(sets)), 10)
	dst = append(dst, ",\n  \"session\": "...)
	dst = appendJSONString(dst, session)
	dst = append(dst, ",\n  \"sets\": ["...)
	for i, set := range sets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    ["...)
		for j, a := range set.Addrs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n      "...)
			dst = appendAddr(dst, a)
		}
		if len(set.Addrs) > 0 {
			dst = append(dst, "\n    "...)
		}
		dst = append(dst, ']')
	}
	if len(sets) > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = append(dst, "],\n  \"view\": "...)
	dst = appendJSONString(dst, view)
	return append(dst, "\n}\n"...)
}

// appendAddr appends a valid address as encoding/json quotes its String().
// Without a zone that text is digits, hex letters, dots and colons, which
// JSON copies as they are; a zone came from outside the program and may
// hold anything, so it takes the quoting path.
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Zone() != "" {
		return appendJSONString(dst, a.String())
	}
	dst = append(dst, '"')
	dst = a.AppendTo(dst)
	return append(dst, '"')
}

// appendJSONString appends s quoted as encoding/json quotes it. Printable
// ASCII other than a quote, a backslash and the HTML characters <, > and &
// is copied as it is; a string holding any other byte goes through
// json.Marshal, which escapes it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// statsReply is the stats endpoint's payload: counters plus the canonical
// digests, directly comparable with a scenario scorecard's sets_digest.
type statsReply struct {
	Session    string                     `json:"session"`
	Backend    string                     `json:"backend"`
	World      bool                       `json:"world"`
	Received   int64                      `json:"received"`
	Applied    int64                      `json:"applied"`
	Queued     int                        `json:"queued"`
	Sets       map[string]int             `json:"sets"`
	SetsDigest string                     `json:"sets_digest"`
	Partitions []scenario.PartitionDigest `json:"partitions"`
}

// stats assembles the session's scorecard from the memoized snapshot,
// deriving the partitions no sets read has derived yet and the digests.
func (sess *Session) stats() statsReply {
	parts, digest, breakdown := sess.snapshot().all()
	counts := make(map[string]int, len(parts))
	for _, p := range parts {
		counts[p.Name] = len(p.Sets)
	}
	queued := 0
	if sess.queue != nil {
		queued = len(sess.queue)
	}
	return statsReply{
		Session:    sess.ID,
		Backend:    sess.cfg.Backend,
		World:      sess.cfg.World,
		Received:   sess.received.Load(),
		Applied:    sess.applied.Load(),
		Queued:     queued,
		Sets:       counts,
		SetsDigest: digest,
		Partitions: breakdown,
	}
}

// handleStats serves the session scorecard.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFrom(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, sess.stats())
}

// handleSessionStats is the path-scoped alias of /v1/stats.
func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	s.handleStats(w, r)
}

// asviewReply is one AS-level aggregation.
type asviewReply struct {
	Session string           `json:"session"`
	View    string           `json:"view"`
	ASes    int              `json:"ases"`
	Top     []asview.ASCount `json:"top"`
}

// handleASView aggregates one partition per origin AS — world-backed
// sessions only, since only a generated world carries address→ASN truth.
func (s *Server) handleASView(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFrom(w, r)
	if sess == nil {
		return
	}
	if sess.env == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("session %s has no AS mapping (asview needs a world-backed session)", sess.ID))
		return
	}
	name := r.URL.Query().Get("view")
	if name == "" {
		name = "union-v4"
	}
	sets, ok := sess.snapshot().partition(name)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown view %q", name))
		return
	}
	top := 10
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad top %q", t))
			return
		}
		top = n
	}
	counts := asview.SetsPerAS(asview.FromMap(sess.env.World.AddrASN), sets)
	writeJSON(w, http.StatusOK, asviewReply{
		Session: sess.ID,
		View:    name,
		ASes:    len(counts),
		Top:     asview.Top(counts, top),
	})
}

// handleScenarioList serves the preset catalog.
func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	type preset struct {
		Name    string `json:"name"`
		Summary string `json:"summary"`
	}
	out := []preset{}
	for _, p := range scenario.Presets() {
		out = append(out, preset{Name: p.Name, Summary: p.Summary})
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": out})
}

// scenarioRun memoizes one scenario execution per option tuple, so
// concurrent tenants asking for the same run share a single computation.
type scenarioRun struct {
	once sync.Once
	val  any
	err  error
}

// maxScenarioEpochs bounds a longitudinal run's epochs. A run outlives the
// request that started it, even a timed-out one, so an unbounded count could
// keep a CPU busy and its result growing for good. The repository's own
// longitudinal runs use at most 5.
const maxScenarioEpochs = 10

// handleScenarioRun executes (or replays) one preset on demand. Quick mode
// is the default; epochs from 2 to maxScenarioEpochs select a longitudinal
// run. A run whose world would exceed Config.MaxScale, at the scale asked
// for or at the preset's own, answers 400.
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	opts := scenario.Options{Quick: true}
	if v := q.Get("quick"); v == "0" || v == "false" {
		opts.Quick = false
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", v))
			return
		}
		opts.Seed = seed
	}
	if v := q.Get("scale"); v != "" {
		scale, err := strconv.ParseFloat(v, 64)
		if err != nil || !(scale > 0) { // NaN too
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("scale %q out of range (0, %v]", v, s.cfg.MaxScale))
			return
		}
		opts.Scale = scale
	}
	if v := q.Get("backend"); v != "" && v != resolver.Name {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown backend %q (scenarios resolve with %q)", v, resolver.Name))
		return
	}
	epochs := 0
	if v := q.Get("epochs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > maxScenarioEpochs {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("bad epochs %q (longitudinal runs take 2 to %d)", v, maxScenarioEpochs))
			return
		}
		epochs = n
	}
	p, ok := scenario.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown scenario %q", name))
		return
	}
	if scale := p.WorldScale(opts); scale > s.cfg.MaxScale {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("scenario %s would build a world at scale %v, over the cap of %v", name, scale, s.cfg.MaxScale))
		return
	}

	key := fmt.Sprintf("%s|quick=%t|seed=%d|scale=%g|epochs=%d",
		name, opts.Quick, opts.Seed, opts.Scale, epochs)
	s.scenMu.Lock()
	run, ok := s.scenarioRuns[key]
	if !ok {
		run = &scenarioRun{}
		s.scenarioRuns[key] = run
	}
	s.scenMu.Unlock()
	run.once.Do(func() {
		if epochs >= 2 {
			run.val, run.err = scenario.RunLongitudinal(name,
				scenario.LongitudinalOptions{Options: opts, Epochs: epochs})
		} else {
			run.val, run.err = scenario.Run(name, opts)
		}
	})
	if run.err != nil {
		writeError(w, http.StatusInternalServerError, run.err)
		return
	}
	writeJSON(w, http.StatusOK, run.val)
}
