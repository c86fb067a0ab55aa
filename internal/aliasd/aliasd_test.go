package aliasd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/scenario"
)

// post sends a request body and decodes the JSON reply into out (skipped
// when out is nil), returning the status code.
func post(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding reply: %v", url, err)
		}
	}
	return resp.StatusCode
}

// get fetches a URL and decodes the JSON reply into out (skipped when nil).
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding reply: %v", url, err)
		}
	}
	return resp.StatusCode
}

// createTestSession makes one session and returns its id.
func createTestSession(t *testing.T, base, body string) string {
	t.Helper()
	var info sessionInfo
	if code := post(t, base+"/v1/sessions", body, &info); code != http.StatusCreated {
		t.Fatalf("session create: status %d", code)
	}
	if info.ID == "" {
		t.Fatal("session create returned no id")
	}
	return info.ID
}

// obsLines renders NDJSON ingest lines.
func obsLines(recs ...[3]string) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, `{"addr":%q,"proto":%q,"digest":%q}`+"\n", r[0], r[1], r[2])
	}
	return sb.String()
}

// TestHealthzAndBackends: healthz reports liveness, and the retired
// backend surface is gone — GET /v1/backends and the binary resolve route
// answer 404, and a session naming a backend other than batch is refused
// with a 400 that names the value.
func TestHealthzAndBackends(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if code := get(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Sessions != 0 {
		t.Fatalf("healthz = %+v", health)
	}
	if code := get(t, ts.URL+"/v1/backends", nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/backends: status %d, want 404", code)
	}

	var info sessionInfo
	if code := post(t, ts.URL+"/v1/sessions", `{"backend":"batch"}`, &info); code != http.StatusCreated {
		t.Fatalf("batch session: status %d", code)
	}
	if info.Backend != "batch" {
		t.Fatalf("session info backend %q, want batch", info.Backend)
	}
	if code := post(t, ts.URL+"/v1/sessions/"+info.ID+"/resolve", "", nil); code != http.StatusNotFound {
		t.Fatalf("POST /v1/sessions/{id}/resolve: status %d, want 404", code)
	}
	for _, name := range []string{"distributed", "streaming", "quantum"} {
		var refused errorBody
		if code := post(t, ts.URL+"/v1/sessions", `{"backend":"`+name+`"}`, &refused); code != http.StatusBadRequest {
			t.Fatalf("backend %q: status %d, want 400", name, code)
		}
		if !strings.Contains(refused.Error, `"`+name+`"`) {
			t.Fatalf("backend %q refusal does not name it: %q", name, refused.Error)
		}
	}
}

// TestIngestQueryFlow: NDJSON observations land in live streams, flush makes
// queries deterministic, and two sessions fed the same observations in
// different orders and batch splits converge to one sets_digest.
func TestIngestQueryFlow(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	// Two SSH hosts sharing a key digest, one BGP pair overlapping one of
	// them, an IPv6 twin for the dual-stack view.
	corpus := [][3]string{
		{"10.0.0.1", "SSH", "k1"},
		{"10.0.0.2", "SSH", "k1"},
		{"10.0.0.2", "BGP", "r1"},
		{"10.0.0.3", "BGP", "r1"},
		{"2001:db8::1", "SSH", "k1"},
		{"10.0.0.9", "SNMPv3", "e1"},
	}

	a := createTestSession(t, ts.URL, `{}`)
	b := createTestSession(t, ts.URL, `{"backend":"batch"}`)

	// Session a gets everything in one request; session b gets the reversed
	// order split across single-line requests.
	var reply ingestReply
	if code := post(t, ts.URL+"/v1/ingest?session="+a, obsLines(corpus...), &reply); code != http.StatusOK {
		t.Fatalf("ingest a: status %d", code)
	}
	if reply.Accepted != len(corpus) {
		t.Fatalf("ingest a accepted %d, want %d", reply.Accepted, len(corpus))
	}
	for i := len(corpus) - 1; i >= 0; i-- {
		if code := post(t, ts.URL+"/v1/ingest?session="+b, obsLines(corpus[i]), nil); code != http.StatusOK {
			t.Fatalf("ingest b line %d: status %d", i, code)
		}
	}
	for _, id := range []string{a, b} {
		if code := post(t, ts.URL+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
			t.Fatalf("flush %s failed", id)
		}
	}

	var setsA struct {
		Count int        `json:"count"`
		Sets  [][]string `json:"sets"`
	}
	get(t, ts.URL+"/v1/sets?session="+a+"&view=ssh", &setsA)
	if setsA.Count != 1 || len(setsA.Sets[0]) != 3 {
		t.Fatalf("ssh view = %+v, want one set of three addresses", setsA)
	}
	var dual struct {
		Count int `json:"count"`
	}
	get(t, ts.URL+"/v1/sets?session="+a+"&view=dualstack", &dual)
	if dual.Count != 1 {
		t.Fatalf("dualstack view count = %d, want 1", dual.Count)
	}

	var statsA, statsB statsReply
	get(t, ts.URL+"/v1/stats?session="+a, &statsA)
	get(t, ts.URL+"/v1/sessions/"+b, &statsB)
	if statsA.SetsDigest == "" || len(statsA.SetsDigest) != 64 {
		t.Fatalf("stats a digest %q not a sha256 hex string", statsA.SetsDigest)
	}
	if statsA.SetsDigest != statsB.SetsDigest {
		t.Fatalf("order-dependent digests: %s vs %s", statsA.SetsDigest, statsB.SetsDigest)
	}
	if statsA.Applied != int64(len(corpus)) {
		t.Fatalf("stats a applied %d, want %d", statsA.Applied, len(corpus))
	}
	if len(statsA.Partitions) != 6 {
		t.Fatalf("stats a has %d partition digests, want 6", len(statsA.Partitions))
	}
	// union-v4 merges the SSH pair with the overlapping BGP pair.
	if statsA.Sets["union-v4"] != 1 || statsA.Sets["ssh"] != 1 {
		t.Fatalf("stats a set counts = %v", statsA.Sets)
	}

	// Bad lines are rejected with the line number; prior lines stay counted.
	var badReply errorBody
	if code := post(t, ts.URL+"/v1/ingest?session="+a,
		obsLines(corpus[0])+`{"addr":"not-an-ip","proto":"SSH","digest":"x"}`+"\n",
		&badReply); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d", code)
	}
	if badReply.Accepted != 1 || !strings.Contains(badReply.Error, "line 2") {
		t.Fatalf("malformed ingest reply = %+v", badReply)
	}

	// Unknown views name the valid ones.
	var viewErr errorBody
	if code := get(t, ts.URL+"/v1/sets?session="+a+"&view=nope", &viewErr); code != http.StatusBadRequest {
		t.Fatal("unknown view accepted")
	}
	if !strings.Contains(viewErr.Error, "union-v6") {
		t.Fatalf("view error %q does not list valid views", viewErr.Error)
	}
}

// TestIngestBackpressure: a saturated queue answers 429 + Retry-After with
// the partial acceptance count, and the rejected remainder can be resent
// after backoff with nothing lost or duplicated.
func TestIngestBackpressure(t *testing.T) {
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	srv := NewServer(Config{
		QueueDepth: 2,
		applyHook: func() {
			entered <- struct{}{}
			<-release
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := createTestSession(t, ts.URL, "{}")
	corpus := [][3]string{
		{"10.0.0.1", "SSH", "k1"},
		{"10.0.0.2", "SSH", "k1"},
		{"10.0.0.3", "SSH", "k2"},
		{"10.0.0.4", "SSH", "k2"},
		{"10.0.0.5", "SSH", "k3"},
	}

	// First line: the worker dequeues it and parks in the hook.
	if code := post(t, ts.URL+"/v1/ingest?session="+id, obsLines(corpus[0]), nil); code != http.StatusOK {
		t.Fatalf("priming ingest: status %d", code)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first observation")
	}

	// Remaining four: the queue (depth 2) accepts exactly two, then sheds.
	resp, err := http.Post(ts.URL+"/v1/ingest?session="+id, "application/x-ndjson",
		strings.NewReader(obsLines(corpus[1:]...)))
	if err != nil {
		t.Fatal(err)
	}
	var shed errorBody
	json.NewDecoder(resp.Body).Decode(&shed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if shed.Accepted != 2 {
		t.Fatalf("saturated ingest accepted %d, want 2", shed.Accepted)
	}

	// Back off (release the worker and wait for it to drain the queue),
	// resend the shed remainder, flush.
	close(release)
	if code := post(t, ts.URL+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
		t.Fatal("drain flush failed")
	}
	if code := post(t, ts.URL+"/v1/ingest?session="+id, obsLines(corpus[1+shed.Accepted:]...), nil); code != http.StatusOK {
		t.Fatalf("retry ingest: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
		t.Fatal("flush failed")
	}

	var stats statsReply
	get(t, ts.URL+"/v1/stats?session="+id, &stats)
	if stats.Applied != int64(len(corpus)) || stats.Received != int64(len(corpus)) {
		t.Fatalf("after retry: applied %d received %d, want %d", stats.Applied, stats.Received, len(corpus))
	}
	if stats.Sets["ssh"] != 2 {
		t.Fatalf("ssh sets = %d, want 2", stats.Sets["ssh"])
	}
}

// TestIngestRecordTooLong: a record longer than obsfile.MaxRecordBytes stops
// the ingest with 413 and the count of records accepted before it, and the
// session applies exactly those.
func TestIngestRecordTooLong(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	id := createTestSession(t, ts.URL, "{}")
	body := obsLines(
		[3]string{"10.0.0.1", "SSH", "k1"},
		[3]string{"10.0.0.2", "SSH", "k1"},
		[3]string{"10.0.0.3", "SSH", strings.Repeat("d", 1<<20)},
		[3]string{"10.0.0.4", "SSH", "k1"},
	)
	var reply errorBody
	if code := post(t, ts.URL+"/v1/ingest?session="+id, body, &reply); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("ingest: status %d, want 413", code)
	}
	if want := "line 3: " + obsfile.ErrRecordTooLong.Error(); reply.Error != want || reply.Accepted != 2 {
		t.Fatalf("ingest reply %+v, want error %q after 2 accepted", reply, want)
	}
	if code := post(t, ts.URL+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	var stats statsReply
	get(t, ts.URL+"/v1/stats?session="+id, &stats)
	if stats.Applied != 2 || stats.Received != 2 {
		t.Fatalf("applied %d received %d, want 2", stats.Applied, stats.Received)
	}
}

// TestSessionConfigTooLong: a session config body past 64 KiB answers 413
// and creates no session, while an empty config still creates one.
func TestSessionConfigTooLong(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	body := `{"backend":"` + strings.Repeat("b", 1<<20) + `"}`
	var reply errorBody
	if code := post(t, ts.URL+"/v1/sessions", body, &reply); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB config: status %d (%s), want 413", code, reply.Error)
	}
	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	get(t, ts.URL+"/v1/sessions", &list)
	if len(list.Sessions) != 0 {
		t.Fatalf("an over-long config created sessions %+v", list.Sessions)
	}
	createTestSession(t, ts.URL, "{}")
}

// TestSessionCapacityAndLifecycle: the registry sheds session creation at
// capacity with 503, frees a slot on delete, and 404s unknown ids.
func TestSessionCapacityAndLifecycle(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{MaxSessions: 2}).Handler())
	defer ts.Close()

	a := createTestSession(t, ts.URL, "{}")
	createTestSession(t, ts.URL, "{}")
	var full errorBody
	if code := post(t, ts.URL+"/v1/sessions", "{}", &full); code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity create: status %d, want 503", code)
	}
	if !strings.Contains(full.Error, "capacity") {
		t.Fatalf("over-capacity error = %q", full.Error)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+a, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	createTestSession(t, ts.URL, "{}") // the slot is free again

	if code := get(t, ts.URL+"/v1/stats?session="+a, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session stats: status %d, want 404", code)
	}
	if code := post(t, ts.URL+"/v1/ingest?session=nope", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown session ingest: status %d, want 404", code)
	}
	if code := get(t, ts.URL+"/v1/sets?view=ssh", nil); code != http.StatusBadRequest {
		t.Fatal("missing session parameter accepted")
	}

	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	get(t, ts.URL+"/v1/sessions", &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(list.Sessions))
	}
}

// TestShutdownDrains: queued observations are applied before Shutdown
// returns, and a draining daemon refuses new sessions.
func TestShutdownDrains(t *testing.T) {
	srv := NewServer(Config{})
	sess, err := srv.createSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		o, err := obsfile.Parse(obsfile.Record{
			Addr:   fmt.Sprintf("10.1.%d.%d", i/250, i%250),
			Proto:  "SSH",
			Digest: fmt.Sprintf("k%d", i/2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.offer(o); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := sess.applied.Load(); got != n {
		t.Fatalf("shutdown dropped observations: applied %d, want %d", got, n)
	}
	select {
	case <-sess.done:
	default:
		t.Fatal("worker still running after shutdown")
	}
	if _, err := srv.createSession(SessionConfig{}); err != errClosed {
		t.Fatalf("create on draining daemon: err %v, want errClosed", err)
	}
}

// TestWorldSession: a world-backed tenant serves sealed views, each
// /v1/sets body in the reference encoding of the env's scored partition,
// and the AS aggregation, refuses ingest, and reports a scorecard-comparable
// digest.
func TestWorldSession(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The body still carries the retired workers and parallelism fields,
	// which once sized a channel and crashed the daemon at these values:
	// they are ignored, and the daemon keeps serving.
	var info sessionInfo
	body := `{"world":true,"seed":7,"scale":0.05,"workers":4611686018427387904,"parallelism":4611686018427387904}`
	if code := post(t, ts.URL+"/v1/sessions", body, &info); code != http.StatusCreated {
		t.Fatalf("world session create: status %d", code)
	}
	if !info.World || info.Scale != 0.05 {
		t.Fatalf("world session info = %+v", info)
	}

	if code := post(t, ts.URL+"/v1/ingest?session="+info.ID, obsLines([3]string{"10.0.0.1", "SSH", "k"}), nil); code != http.StatusConflict {
		t.Fatalf("world session ingest: status %d, want 409", code)
	}

	var stats statsReply
	get(t, ts.URL+"/v1/stats?session="+info.ID, &stats)
	if len(stats.SetsDigest) != 64 || stats.Sets["ssh"] == 0 || stats.Sets["union-v4"] == 0 {
		t.Fatalf("world stats = %+v", stats)
	}
	sess, err := srv.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := byName(scenario.ScoredPartitions(sess.env))
	for _, view := range scenario.PartitionNames {
		checkView(t, ts.URL, info.ID, view, want)
	}

	var av asviewReply
	if code := get(t, ts.URL+"/v1/asview?session="+info.ID+"&view=union-v4&top=5", &av); code != http.StatusOK {
		t.Fatalf("asview: status %d", code)
	}
	if av.ASes == 0 || len(av.Top) == 0 || av.Top[0].Sets == 0 {
		t.Fatalf("asview = %+v", av)
	}

	// Ingest sessions have no AS truth to aggregate by.
	ing := createTestSession(t, ts.URL, "{}")
	if code := get(t, ts.URL+"/v1/asview?session="+ing, nil); code != http.StatusConflict {
		t.Fatal("asview on an ingest session should 409")
	}

	// Out-of-range world scales are rejected up front.
	if code := post(t, ts.URL+"/v1/sessions", `{"world":true,"scale":5}`, nil); code != http.StatusBadRequest {
		t.Fatal("oversized world scale accepted")
	}
}

// TestScenarioEndpoints: the catalog lists presets, runs are memoized per
// option tuple, and bad parameters are rejected.
func TestScenarioEndpoints(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	var catalog struct {
		Scenarios []struct {
			Name    string `json:"name"`
			Summary string `json:"summary"`
		} `json:"scenarios"`
	}
	get(t, ts.URL+"/v1/scenarios", &catalog)
	if len(catalog.Scenarios) < 8 || catalog.Scenarios[0].Summary == "" {
		t.Fatalf("catalog = %+v", catalog)
	}

	var run struct {
		Scenario   string `json:"scenario"`
		Quick      bool   `json:"quick"`
		SetsDigest string `json:"sets_digest"`
	}
	start := time.Now()
	if code := get(t, ts.URL+"/v1/scenarios/baseline?seed=3", &run); code != http.StatusOK {
		t.Fatalf("scenario run: status %d", code)
	}
	cold := time.Since(start)
	if run.Scenario != "baseline" || !run.Quick || len(run.SetsDigest) != 64 {
		t.Fatalf("scenario run = %+v", run)
	}

	// The memoized replay must not re-measure the world.
	start = time.Now()
	var again struct {
		SetsDigest string `json:"sets_digest"`
	}
	get(t, ts.URL+"/v1/scenarios/baseline?seed=3", &again)
	if warm := time.Since(start); warm > cold/2 {
		t.Fatalf("memoized scenario run took %v (cold %v)", warm, cold)
	}
	if again.SetsDigest != run.SetsDigest {
		t.Fatal("memoized run changed digest")
	}

	if code := get(t, ts.URL+"/v1/scenarios/no-such-world", nil); code != http.StatusNotFound {
		t.Fatal("unknown scenario accepted")
	}
	if code := get(t, ts.URL+"/v1/scenarios/baseline?epochs=1", nil); code != http.StatusBadRequest {
		t.Fatal("epochs=1 accepted")
	}
	if code := get(t, ts.URL+"/v1/scenarios/baseline?epochs=1000000", nil); code != http.StatusBadRequest {
		t.Fatal("epochs=1000000 accepted")
	}
	if code := get(t, ts.URL+"/v1/scenarios/baseline?scale=99", nil); code != http.StatusBadRequest {
		t.Fatal("oversized scenario scale accepted")
	}

	// The scale cap holds for the world a run would build, asked for or
	// the preset's own: under a cap of 0.01, baseline's quick world (0.08)
	// and its full world (0.2) are refused too.
	capped := httptest.NewServer(NewServer(Config{MaxScale: 0.01}).Handler())
	defer capped.Close()
	for _, query := range []string{"?scale=0.08", "", "?quick=0", "?epochs=3"} {
		var refused errorBody
		if code := get(t, capped.URL+"/v1/scenarios/baseline"+query, &refused); code != http.StatusBadRequest {
			t.Fatalf("baseline%s under a 0.01 cap: status %d, want 400", query, code)
		}
		if !strings.Contains(refused.Error, "scale") {
			t.Fatalf("baseline%s refusal does not name the scale: %q", query, refused.Error)
		}
	}
	var refused errorBody
	if code := get(t, ts.URL+"/v1/scenarios/baseline?backend=distributed", &refused); code != http.StatusBadRequest {
		t.Fatalf("backend=distributed: status %d, want 400", code)
	}
	if !strings.Contains(refused.Error, `"distributed"`) {
		t.Fatalf("backend refusal does not name the value: %q", refused.Error)
	}
}

// TestRequestTimeout: the configured ceiling turns a stalled flush into a
// bounded failure instead of a hung connection.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := NewServer(Config{
		QueueDepth:     1,
		RequestTimeout: 50 * time.Millisecond,
		applyHook:      func() { <-release },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := createTestSession(t, ts.URL, "{}")
	// Two observations: the worker parks on the first, the second fills the
	// depth-1 queue, so the flush marker cannot even be enqueued.
	post(t, ts.URL+"/v1/ingest?session="+id, obsLines([3]string{"10.0.0.1", "SSH", "a"}), nil)
	post(t, ts.URL+"/v1/ingest?session="+id, obsLines([3]string{"10.0.0.2", "SSH", "b"}), nil)

	resp, err := http.Post(ts.URL+"/v1/flush?session="+id, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled flush: status %d, want a timeout status", resp.StatusCode)
	}
}
