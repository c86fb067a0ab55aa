package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/aliasd"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
	"aliaslimit/internal/xrand"
)

// daemonScale is the corpus world's default scale.
const daemonScale = 0.1

// queryViews is the view rotation of the daemon clients, one view per batch.
var queryViews = []string{"ssh", "bgp", "snmpv3", "union-v4", "union-v6", "dualstack"}

// daemonClients is the number of closed-loop clients, capped at GOMAXPROCS,
// which the run already refuses above the CPU count.
const daemonClients = 2

// corpus is the daemon workload's input: the reference environment's
// observations as NDJSON lines and the batch backend's digest over them.
// series and env hold the corpus world until close releases it.
type corpus struct {
	series *experiments.EnvSeries
	env    *experiments.Env
	lines  [][]byte
	digest string
}

// close releases the corpus world; the lines and the digest stay.
func (c *corpus) close() {
	if c.env != nil {
		c.env.Close()
		c.series.Close()
		c.env, c.series = nil, nil
	}
}

// runDaemon starts an in-process aliasd server on a loopback listener and
// drives it with closed-loop clients, one connection each. Set-up builds the
// corpus world, the batch backend's reference digest and the NDJSON lines,
// as the daemon's own load test does. Each client then repeats a session
// lifecycle: create a session on the default streaming backend, ingest the
// corpus in a seed-shuffled order in 400-line batches, flush and read one
// view after each batch, check the final sets_digest against the reference,
// and delete the session.
func runDaemon(rc *runCtx) (*outcome, error) {
	scale := rc.scale
	if scale == 0 {
		scale = daemonScale
	}
	clients := min(daemonClients, runtime.GOMAXPROCS(0))
	out := &outcome{params: map[string]any{
		"scale": scale, "clients": clients, "batch": ingestBatch, "session_backend": "streaming",
		"reference_backend": "batch", "corpora": family,
	}}

	// Each set-up round builds one corpus from the next world of the run's
	// seed sequence; the clients rotate through all of them.
	want, shipped := goldenFor("daemon", rc.seed, rc.scale)
	var opts experiments.Options
	var corpora []*corpus
	defer func() {
		for _, c := range corpora {
			c.close()
		}
	}()
	var sizes []int
	for r := 0; r < family; r++ {
		cfg := topo.Default()
		cfg.Seed, cfg.Scale = worldSeed(rc.seed, r), scale
		opts = experiments.Options{Topo: cfg, Scan: experiments.ScanOptions{Seed: cfg.Seed}, Backend: resolver.NewBatch()}
		sc := rc.tr.root(fmt.Sprintf("setup-%d", r), phaseSetup)
		t0 := time.Now()
		c, err := buildCorpus(sc, opts)
		out.setup.addTime(r, t0, time.Since(t0))
		if err != nil {
			return nil, err
		}
		corpora = append(corpora, c)
		sizes = append(sizes, len(c.lines))
		out.digests = append(out.digests, c.digest)
		if shipped {
			rc.ops.expect(fmt.Sprintf("daemon corpus %d vs shipped digest", r), c.digest, want[r])
		}
		// The clients need only the lines and the digest, so no idle world
		// counts toward the closed loop's memory; a traced run keeps the
		// last one for the probe's render.
		if rc.tr == nil || r < family-1 {
			c.close()
		}
		freeMemory()
	}
	out.params["observations"] = sizes

	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	start := time.Now()
	// The closed loop is one steady state: its memory is sampled in
	// one-second windows.
	rc.mem.window()
	stopMem := make(chan struct{})
	memDone := make(chan struct{})
	go func() {
		defer close(memDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopMem:
				return
			case <-t.C:
				p := rc.mem.window()
				mu.Lock()
				out.mem.add(0, p)
				mu.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := d.client()
			defer cl.close()
			var longest time.Duration
			for k := 0; k < rc.minIter() || time.Since(start)+longest <= rc.budget; k++ {
				tr := rc.iterTracer(k)
				lat := rc.lat
				if tr != nil {
					lat = nil
				}
				cp := corpora[(c+k)%len(corpora)]
				rng := xrand.NewSplitMix64(rc.seed).Fork(fmt.Sprintf("client-%d-cycle-%d", c, k))
				batches := batchLines(cp.lines, rng.Perm(len(cp.lines)))
				sc := tr.root(fmt.Sprintf("c%d-%d", c, k), phaseLoop)
				t0 := time.Now()
				root := sc.begin("iteration")
				cl.cycle(rc, sc.child(root), batches, queryViews, cp.digest, lat)
				sc.end(root)
				took := time.Since(t0)
				longest = max(longest, took)
				mu.Lock()
				if tr == nil {
					out.wall.addTime(0, t0, took)
				} else {
					out.traced.addTime(0, t0, took)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stopMem)
	<-memDone
	out.mem.add(0, rc.mem.window())
	if err := d.stop(); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := probeLayers(rc, experiments.SeriesOptions{Options: opts}, corpora[len(corpora)-1].env); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildCorpus measures the corpus world on the batch backend, digests its
// scored partitions, and marshals the scored observations as NDJSON: SSH and
// BGP from the union dataset, SNMPv3 from the active scan.
func buildCorpus(sc scope, opts experiments.Options) (*corpus, error) {
	var series *experiments.EnvSeries
	var err error
	id := sc.do("topo.build", func() { series, err = experiments.NewEnvSeries(experiments.SeriesOptions{Options: opts}) })
	if err != nil {
		return nil, err
	}
	sc.count(id, "devices", float64(series.World.Fabric.NumDevices()))
	sc.count(id, "addrs", float64(len(series.World.V4Universe())+len(series.World.V6Bound())))
	var ep *experiments.Epoch
	id = sc.do("experiments.advance", func() { ep, err = series.Advance() })
	if err != nil {
		series.Close()
		return nil, err
	}
	env := ep.Env
	c := &corpus{series: series, env: env}
	for _, p := range ident.Protocols {
		ds := env.Both
		if p == ident.SNMP {
			ds = env.Active
		}
		sc.count(id, "obs_"+protoKey(p), float64(len(ds.Obs[p])))
		for _, o := range ds.Obs[p] {
			line, err := ndjson(o)
			if err != nil {
				c.close()
				return nil, err
			}
			c.lines = append(c.lines, line)
		}
	}
	partitionReads(sc, env, nil)
	c.digest = digestEnv(sc, env)
	return c, nil
}

// ndjson encodes one observation as an obsfile line.
func ndjson(o alias.Observation) ([]byte, error) {
	data, err := json.Marshal(obsfile.Record{Addr: o.Addr.String(), Proto: o.ID.Proto.String(), Digest: o.ID.Digest})
	return append(data, '\n'), err
}

// batchLines cuts lines, taken in order, into ingest batches of ingestBatch
// lines.
func batchLines(lines [][]byte, order []int) [][][]byte {
	var out [][][]byte
	for lo := 0; lo < len(lines); lo += ingestBatch {
		hi := min(lo+ingestBatch, len(lines))
		b := make([][]byte, 0, hi-lo)
		for _, j := range order[lo:hi] {
			b = append(b, lines[j])
		}
		out = append(out, b)
	}
	return out
}

// daemon is an in-process aliasd server on a loopback listener.
type daemon struct {
	srv    *aliasd.Server
	hs     *http.Server
	base   string
	served chan error
}

// startDaemon serves a fresh aliasd server with the default configuration.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := aliasd.NewServer(aliasd.Config{})
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon's sessions, closes the listener and waits for the
// serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop daemon client on its own connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func (d *daemon) client() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: d.base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call makes one request, decodes a JSON reply into v (nil drains it), and
// returns the status code. Error replies decode too: a 429 carries the count
// of lines the daemon accepted before it pushed back.
func (c *client) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode != http.StatusNoContent {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// request makes one call in a span, records it as an operation (a non-2xx
// status fails it), and returns the status.
func (c *client) request(rc *runCtx, sc scope, span, method, path string, body []byte, v any) (int, error) {
	id := sc.begin(span)
	status, err := c.call(method, path, body, v)
	sc.end(id)
	sc.count(id, "calls", 1)
	if err == nil && (status < 200 || status > 299) {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			sc.count(id, "rejected", 1)
		}
		err = fmt.Errorf("%s %s: status %d", method, path, status)
	}
	rc.ops.add(err)
	return status, err
}

// cycle runs one session lifecycle, flushing and reading the next of views
// in rotation after every batch. A final stats read, at the applied count
// of the last view read and so served from the view the daemon memoized
// then, carries the digest checked against want. Every request is an
// operation of rc; a failed one ends the cycle.
func (c *client) cycle(rc *runCtx, sc scope, batches [][][]byte, views []string, want string, lat *book) {
	var info struct {
		ID string `json:"id"`
	}
	if _, err := c.request(rc, sc, "aliasd.session", http.MethodPost, "/v1/sessions", []byte("{}"), &info); err != nil {
		return
	}
	sess := "?session=" + info.ID
	query := func(view string) error {
		t0 := time.Now()
		_, err := c.request(rc, sc, "aliasd.query.recompute", http.MethodGet, "/v1/sets"+sess+"&view="+view, nil, nil)
		if lat != nil && err == nil {
			lat.add("query", t0, time.Since(t0))
		}
		return err
	}
	flush := func() error {
		_, err := c.request(rc, sc, "aliasd.flush", http.MethodPost, "/v1/flush"+sess, nil, nil)
		return err
	}
	for j, b := range batches {
		pending := b
		for len(pending) > 0 {
			var reply struct {
				Accepted int `json:"accepted"`
			}
			body := bytes.Join(pending, nil)
			t0 := time.Now()
			id := sc.begin("aliasd.ingest")
			status, err := c.call(http.MethodPost, "/v1/ingest"+sess, body, &reply)
			sc.end(id)
			switch {
			case err == nil && status == http.StatusOK:
				sc.count(id, "lines", float64(len(pending)))
				if lat != nil {
					lat.add("ingest", t0, time.Since(t0))
				}
				rc.ops.ok()
				pending = nil
			case err == nil && status == http.StatusTooManyRequests:
				// Backpressure: a failed operation, then resend the rest.
				sc.count(id, "rejected", 1)
				rc.ops.fail("ingest: status 429 after %d lines", reply.Accepted)
				pending = pending[min(reply.Accepted, len(pending)):]
				time.Sleep(2 * time.Millisecond)
			default:
				if err == nil {
					err = fmt.Errorf("ingest: status %d", status)
				}
				rc.ops.add(err)
				return
			}
		}
		if flush() != nil || query(views[j%len(views)]) != nil {
			return
		}
	}
	var stats struct {
		SetsDigest string `json:"sets_digest"`
	}
	if _, err := c.request(rc, sc, "aliasd.query.memo", http.MethodGet, "/v1/stats"+sess, nil, &stats); err == nil {
		rc.ops.expect("daemon session vs batch reference", stats.SetsDigest, want)
	}
	c.request(rc, sc, "aliasd.session", http.MethodDelete, "/v1/sessions/"+info.ID, nil, nil)
}
