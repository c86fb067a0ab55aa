package distres

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/xrand"
)

// numProto is the number of identifier protocols the buffers index by.
const numProto = 3

// session is the coordinator side of one distributed resolution: local
// per-(worker, protocol) observation buffers, one remote aliasd session per
// worker, and a sticky error that turns the first remote failure into a
// clean all-or-nothing outcome.
type session struct {
	cluster *Cluster
	// ids holds the remote aliasd session id on each worker.
	ids []string

	mu sync.Mutex
	// pending buffers observations per (worker, protocol) until a Sets call
	// flushes that protocol — Observe is constant-time local work, which is
	// what lets collection feed a distributed session live.
	pending []([numProto][]alias.Observation)
	err     error
	closed  bool
}

// openSession creates one remote batch session per worker: each shard's
// state is the in-process backend's per-protocol groupers and interning
// table, run remotely.
func openSession(c *Cluster) (resolver.Session, error) {
	s := &session{
		cluster: c,
		ids:     make([]string, c.Size()),
		pending: make([]([numProto][]alias.Observation), c.Size()),
	}
	body := []byte(`{"backend":"batch"}`)
	for i := 0; i < c.Size(); i++ {
		resp, err := c.client.Post(c.WorkerURL(i)+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("%w: creating session on worker %d: %v", ErrWorkerFailed, i, err)
		}
		var info struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || info.ID == "" {
			s.Close()
			return nil, fmt.Errorf("%w: worker %d session create returned %s", ErrWorkerFailed, i, resp.Status)
		}
		s.ids[i] = info.ID
	}
	return s, nil
}

// resolveURL is one worker's binary fast-path endpoint for this session.
func (s *session) resolveURL(i int) string {
	return s.cluster.WorkerURL(i) + "/v1/sessions/" + s.ids[i] + "/resolve"
}

// fail records the first remote error, making every subsequent Sets/Merged
// return nil and Close report the failure.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("%w: %v", ErrWorkerFailed, err)
	}
	s.mu.Unlock()
}

// Err returns the session's sticky error, nil while healthy.
func (s *session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ShardRoute returns the worker index in [0, workers) an observation's
// identifier routes to. A group never straddles workers, so concatenating
// per-worker canonical sets and sorting equals the single-session grouping.
func ShardRoute(id ident.Identifier, workers int) int {
	return int(xrand.Hash64(id.Digest) % uint64(workers))
}

// Observe implements resolver.Session by routing the observation to its
// identifier's shard worker.
func (s *session) Observe(o alias.Observation) {
	w := ShardRoute(o.ID, len(s.ids))
	s.mu.Lock()
	s.pending[w][o.ID.Proto] = append(s.pending[w][o.ID.Proto], o)
	s.mu.Unlock()
}

// flushChunkObs bounds one wire request of the pipelined flush: large enough
// that header and ack overhead is negligible, small enough that encoding the
// next chunk genuinely overlaps the in-flight POST.
const flushChunkObs = 8192

// flush ships one protocol's pending buffers to their workers. Each worker's
// batch is canonicalised once, then shipped as a double-buffered pipeline:
// an encoder goroutine serialises chunk N while the sender's POST of chunk
// N-1 is still on the wire (channel capacity 1 = one chunk encoded ahead).
// Chunks of a canonical batch are themselves canonical, so the encoder's own
// canon pass stays a no-op and the wire bytes remain
// arrival-order-independent; the worker folds sequential chunks into the same
// shard state one combined batch would produce. Batches at or under the chunk
// size take the single-request path unchanged.
func (s *session) flush(p ident.Protocol) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	batches := make([][]alias.Observation, len(s.ids))
	for w := range s.pending {
		batches[w] = s.pending[w][p]
		s.pending[w][p] = nil
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for w, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, batch []alias.Observation) {
			defer wg.Done()
			// Canonicalise up front so each chunk's ack count is comparable.
			batch = canonObs(batch)
			type chunk struct {
				body []byte
				want int
			}
			chunks := make(chan chunk, 1)
			go func() {
				defer close(chunks)
				for len(batch) > 0 {
					n := len(batch)
					if n > flushChunkObs {
						n = flushChunkObs
					}
					chunks <- chunk{body: encodeObsRequest(batch[:n]), want: n}
					batch = batch[n:]
				}
			}()
			for c := range chunks {
				if errs[w] != nil {
					continue // drain the encoder so it can exit
				}
				body, err := s.cluster.post(s.resolveURL(w), c.body)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d: %v", w, err)
					continue
				}
				m, err := decodeMessage(body)
				if err != nil || m.op != opObs {
					errs[w] = fmt.Errorf("worker %d: bad ingest ack: %v", w, err)
					continue
				}
				if m.count != c.want {
					errs[w] = fmt.Errorf("worker %d applied %d of %d observations", w, m.count, c.want)
				}
			}
		}(w, batch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.fail(err)
			return s.Err()
		}
	}
	return nil
}

// Sets implements resolver.Session: flush the protocol's pending
// observations, ask every worker for its shard's canonical alias sets, and
// concatenate + sort. Because the shard route is the identifier hash, the
// result is byte-identical to the batch backend's single-arena grouping. A
// failed session returns nil.
func (s *session) Sets(p ident.Protocol) []alias.Set {
	if err := s.flush(p); err != nil {
		return nil
	}
	req := encodeSetsRequest(p)
	partials := make([][]alias.Set, len(s.ids))
	errs := make([]error, len(s.ids))
	var wg sync.WaitGroup
	for w := range s.ids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			partials[w], errs[w] = s.fetchSets(w, req, opSets)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.fail(err)
			return nil
		}
	}
	total := 0
	for _, part := range partials {
		total += len(part)
	}
	out := make([]alias.Set, 0, total)
	for _, part := range partials {
		out = append(out, part...)
	}
	alias.SortSets(out)
	return out
}

// fetchSets posts one set-returning request to a worker and decodes the
// stream.
func (s *session) fetchSets(w int, req []byte, wantOp byte) ([]alias.Set, error) {
	body, err := s.cluster.post(s.resolveURL(w), req)
	if err != nil {
		return nil, fmt.Errorf("worker %d: %v", w, err)
	}
	m, err := decodeMessage(body)
	if err != nil {
		return nil, fmt.Errorf("worker %d: %v", w, err)
	}
	if m.op != wantOp {
		return nil, fmt.Errorf("worker %d: op %d in response, want %d", w, m.op, wantOp)
	}
	if err := m.checkCount(); err != nil {
		return nil, fmt.Errorf("worker %d: %v", w, err)
	}
	return m.sets, nil
}

// Merged implements resolver.Session: flatten the partitions, deal the sets
// round-robin to the workers for shard-local union-find collapse, and merge
// the partial partitions in one final pass — union-find closure is
// associative, so the result equals the single-pass merge. Small inputs
// collapse locally: shipping them would spend more wire than the fan-out
// saves. A failed session returns nil.
func (s *session) Merged(groups ...[]alias.Set) []alias.Set {
	if s.Err() != nil {
		return nil
	}
	var sets []alias.Set
	for _, g := range groups {
		sets = append(sets, g...)
	}
	w := len(s.ids)
	if w <= 1 || len(sets) < 2*w {
		return alias.Merge(sets)
	}
	shards := make([][]alias.Set, w)
	for i, set := range sets {
		shards[i%w] = append(shards[i%w], set)
	}
	partials := make([][]alias.Set, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			partials[i], errs[i] = s.fetchSets(i, encodeSetStream(opMerge, 0, shards[i]), opMerge)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.fail(err)
			return nil
		}
	}
	return alias.Merge(partials...)
}

// Close implements resolver.Session: delete the remote sessions
// (best-effort — a crashed worker cannot honor the delete) and report the
// sticky error. Idempotent.
func (s *session) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	for i, id := range s.ids {
		if id == "" {
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, s.cluster.WorkerURL(i)+"/v1/sessions/"+id, nil)
		if err != nil {
			continue
		}
		if resp, err := s.cluster.client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	return s.Err()
}
