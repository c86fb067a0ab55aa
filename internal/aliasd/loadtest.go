package aliasd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/scenario"
	"aliaslimit/internal/topo"
	"aliaslimit/internal/xrand"
)

// The load-test harness: N concurrent tenants, each with its own session,
// ingesting the same observation corpus in a tenant-specific shuffled order
// over real HTTP, then querying every view. It reports latency percentiles
// in the bench-gate JSON shape and cross-checks every tenant's final
// sets_digest against the sealed environment's digest of the same corpus —
// the end-to-end byte-determinism proof, through the wire.

// LoadOptions tune one load-test run.
type LoadOptions struct {
	// Clients is the number of concurrent tenants; 0 picks 8.
	Clients int
	// Requests is the number of query requests per tenant; 0 picks 40.
	Requests int
	// Batch is the number of observation lines per ingest request; 0 picks
	// 400.
	Batch int
	// Scale / Seed pin the corpus world. Zero picks 0.15 / 1 — the
	// BENCH_baseline.json header values, so reports feed the compare gate.
	Scale float64
	Seed  uint64
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// withDefaults fills unset fields.
func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Requests <= 0 {
		o.Requests = 40
	}
	if o.Batch <= 0 {
		o.Batch = 400
	}
	if o.Scale == 0 {
		o.Scale = 0.15
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// BenchEntry is one measurement in the bench-gate JSON shape
// (cmd/benchtables reads the same fields from BENCH_baseline.json).
type BenchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Ops     int     `json:"ops"`
}

// LatencySummary is one request class's percentile summary in milliseconds,
// for human eyes; the Results entries carry the same numbers for the gate.
type LatencySummary struct {
	Class string  `json:"class"`
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
}

// LoadReport is the harness's machine-readable outcome. Scale/Seed/CPUs/
// GoMaxProcs/GoOS/GoArch mirror the benchtables report header so the compare
// gate accepts the file.
type LoadReport struct {
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	CPUs       int     `json:"cpus"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoOS       string  `json:"goos"`
	GoArch     string  `json:"goarch"`
	// Clients / Observations size the run: tenants, and corpus lines each
	// tenant ingested.
	Clients      int `json:"clients"`
	Observations int `json:"observations"`
	// Retries counts 429-backpressure rounds the clients absorbed.
	Retries int `json:"retries"`
	// SetsDigest is the digest every tenant converged to — equal to the
	// sealed environment's digest over the same corpus.
	SetsDigest string           `json:"sets_digest"`
	Latencies  []LatencySummary `json:"latencies"`
	Results    []BenchEntry     `json:"results"`
}

// latencyBook collects per-class request durations from all clients.
type latencyBook struct {
	mu sync.Mutex
	by map[string][]time.Duration
}

// add records one request.
func (b *latencyBook) add(class string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.by[class] = append(b.by[class], d)
}

// percentile returns the q-th percentile (0 < q <= 1) of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RunLoadTest builds the corpus world, starts an aliasd server on a loopback
// listener, drives it with opts.Clients concurrent tenants, and returns the
// latency report. It fails if any tenant's final sets_digest differs from
// the sealed environment's digest over the same corpus.
func RunLoadTest(cfg Config, opts LoadOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The corpus and the expected digest come from an ordinary sealed
	// environment — the reference the daemon must match.
	tc := topo.Default()
	tc.Seed = opts.Seed
	tc.Scale = opts.Scale
	env, err := experiments.BuildEnv(experiments.Options{
		Topo: tc,
		Scan: experiments.ScanOptions{Seed: opts.Seed},
	})
	if err != nil {
		return nil, fmt.Errorf("aliasd: building corpus world: %w", err)
	}
	wantDigest, _ := scenario.DigestPartitions(scenario.ScoredPartitions(env))

	// Pre-marshal the corpus once; clients reorder by index. Every protocol
	// comes from the union dataset, whose SNMPv3 observations are the
	// active scan's: exactly the partitions the scorecard digests.
	var lines [][]byte
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		for _, o := range env.Both.Obs[p] {
			rec := obsfile.Record{Addr: o.Addr.String(), Proto: p.String(), Digest: o.ID.Digest}
			data, err := json.Marshal(rec)
			if err != nil {
				return nil, err
			}
			lines = append(lines, append(data, '\n'))
		}
	}
	logf("corpus: %d observations (scale %g seed %d), expected digest %.12s…",
		len(lines), opts.Scale, opts.Seed, wantDigest)

	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Shutdown(ctx)
	}()

	book := &latencyBook{by: make(map[string][]time.Duration)}
	var retries sync.Map // int -> int, per-client retry counts
	errs := make(chan error, opts.Clients)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n, err := driveClient(base, c, lines, wantDigest, opts, book)
			retries.Store(c, n)
			errs <- err
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &LoadReport{
		Scale: opts.Scale, Seed: opts.Seed,
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Clients:      opts.Clients,
		Observations: len(lines),
		SetsDigest:   wantDigest,
	}
	retries.Range(func(_, v any) bool { rep.Retries += v.(int); return true })
	book.mu.Lock()
	classes := make([]string, 0, len(book.by))
	for class := range book.by {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		ds := book.by[class]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		p50, p90, p99 := percentile(ds, 0.50), percentile(ds, 0.90), percentile(ds, 0.99)
		rep.Latencies = append(rep.Latencies, LatencySummary{
			Class: class, Count: len(ds),
			P50ms: float64(p50.Nanoseconds()) / 1e6,
			P90ms: float64(p90.Nanoseconds()) / 1e6,
			P99ms: float64(p99.Nanoseconds()) / 1e6,
		})
		for q, d := range map[string]time.Duration{"p50": p50, "p90": p90, "p99": p99} {
			rep.Results = append(rep.Results, BenchEntry{
				Name:    "aliasd_" + class + "_" + q,
				NsPerOp: float64(d.Nanoseconds()),
				Ops:     len(ds),
			})
		}
		logf("%-7s %5d requests  p50 %.2fms  p90 %.2fms  p99 %.2fms",
			class, len(ds), float64(p50.Nanoseconds())/1e6,
			float64(p90.Nanoseconds())/1e6, float64(p99.Nanoseconds())/1e6)
	}
	book.mu.Unlock()
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Name < rep.Results[j].Name })
	logf("all %d tenants converged to digest %.12s… after %d backpressure retries",
		opts.Clients, wantDigest, rep.Retries)
	return rep, nil
}

// driveClient runs one tenant's full lifecycle: create session, ingest the
// shuffled corpus with 429 retries, flush, query, verify the digest, delete.
// It returns the number of backpressure retries it absorbed.
func driveClient(base string, c int, lines [][]byte, wantDigest string, opts LoadOptions, book *latencyBook) (int, error) {
	client := &http.Client{}
	timed := func(class string, f func() error) error {
		start := time.Now()
		err := f()
		book.add(class, time.Since(start))
		return err
	}

	// Create the session.
	var sessID string
	err := timed("session", func() error {
		resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewBufferString("{}"))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var info struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusCreated || info.ID == "" {
			return fmt.Errorf("client %d: session create: status %d", c, resp.StatusCode)
		}
		sessID = info.ID
		return nil
	})
	if err != nil {
		return 0, err
	}

	// Ingest the corpus in a tenant-specific order — sessions are
	// order-insensitive, and equal final digests prove it.
	order := xrand.NewSplitMix64(opts.Seed ^ uint64(c+1)).Perm(len(lines))
	retries := 0
	for lo := 0; lo < len(order); lo += opts.Batch {
		hi := lo + opts.Batch
		if hi > len(order) {
			hi = len(order)
		}
		pending := order[lo:hi]
		for len(pending) > 0 {
			var body bytes.Buffer
			for _, idx := range pending {
				body.Write(lines[idx])
			}
			var status, accepted int
			err := timed("ingest", func() error {
				resp, err := client.Post(base+"/v1/ingest?session="+sessID, "application/x-ndjson", &body)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				var reply struct {
					Accepted int `json:"accepted"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
					return err
				}
				accepted = reply.Accepted
				return nil
			})
			if err != nil {
				return retries, err
			}
			switch status {
			case http.StatusOK:
				pending = nil
			case http.StatusTooManyRequests:
				// Honour the backpressure: drop what was accepted, back off
				// briefly (the harness compresses the advertised Retry-After
				// to keep runs fast), resend the rest.
				pending = pending[accepted:]
				retries++
				time.Sleep(2 * time.Millisecond)
			default:
				return retries, fmt.Errorf("client %d: ingest status %d", c, status)
			}
		}
	}

	// Flush so the queries below see the full corpus.
	err = timed("flush", func() error {
		resp, err := client.Post(base+"/v1/flush?session="+sessID, "application/json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("client %d: flush status %d", c, resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return retries, err
	}

	// Query rotation: the six views plus stats.
	views := scenario.PartitionNames
	for i := 0; i < opts.Requests; i++ {
		url := base + "/v1/stats?session=" + sessID
		if v := i % (len(views) + 1); v != len(views) {
			url = base + "/v1/sets?session=" + sessID + "&view=" + views[v]
		}
		err := timed("query", func() error {
			resp, err := client.Get(url)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("client %d: query status %d (%s)", c, resp.StatusCode, url)
			}
			return nil
		})
		if err != nil {
			return retries, err
		}
	}

	// The end-to-end determinism check: this tenant's digest must equal the
	// sealed environment's over the same observations.
	resp, err := client.Get(base + "/v1/stats?session=" + sessID)
	if err != nil {
		return retries, err
	}
	var stats struct {
		Applied    int64  `json:"applied"`
		SetsDigest string `json:"sets_digest"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return retries, err
	}
	if stats.SetsDigest != wantDigest {
		return retries, fmt.Errorf("client %d: sets_digest %s != batch digest %s (applied %d of %d)",
			c, stats.SetsDigest, wantDigest, stats.Applied, len(lines))
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+sessID, nil)
	if err != nil {
		return retries, err
	}
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
	}
	return retries, nil
}
