// Command aliasd runs alias resolution as a service: a long-lived HTTP
// daemon whose tenants stream router observations in and query live alias
// sets out, plus the load-test harness that drives it.
//
// Serve mode (the default) binds the daemon and blocks until SIGINT/SIGTERM,
// then drains every session so accepted observations are applied, not
// dropped:
//
//	aliasd -addr 127.0.0.1:8420 -max-sessions 64 -timeout 30s
//
// The wire protocol is documented in docs/API.md; `curl` examples live
// there and in the README.
//
// Load-test mode builds a measured corpus, starts an in-process daemon on a
// loopback port, and drives it with concurrent tenants whose final
// sets_digest must be byte-identical to the batch resolver's digest over
// the same corpus. The report uses the bench-gate JSON shape so CI can
// compare it against BENCH_baseline.json:
//
//	aliasd -loadtest -quick -json BENCH_aliasd.json -maxp99 2s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"aliaslimit"
)

// errBadFlags marks command-line usage errors so main can exit 2, the
// conventional flag-error status, instead of 1.
var errBadFlags = errors.New("bad flags")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "aliasd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aliasd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	addr := fs.String("addr", "127.0.0.1:8420", "listen address for serve mode")
	maxSessions := fs.Int("max-sessions", 0, "maximum concurrent sessions (0 = default)")
	queueDepth := fs.Int("queue-depth", 0, "per-session ingest queue depth (0 = default)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
	maxScale := fs.Float64("max-scale", 0, "largest world scale a tenant may request (0 = default)")

	loadtest := fs.Bool("loadtest", false, "run the load-test harness instead of serving")
	quick := fs.Bool("quick", false, "loadtest: small CI-friendly preset (fewer tenants and queries)")
	clients := fs.Int("clients", 8, "loadtest: concurrent tenants")
	requests := fs.Int("requests", 40, "loadtest: queries per tenant after ingest")
	batch := fs.Int("batch", 400, "loadtest: observations per ingest request")
	scale := fs.Float64("scale", 0.15, "loadtest: corpus world scale")
	seed := fs.Uint64("seed", 1, "loadtest: corpus world seed")
	jsonPath := fs.String("json", "", "loadtest: write the latency report to this path ('-' for stdout)")
	maxP99 := fs.Duration("maxp99", 0, "loadtest: fail if any aliasd_*_p99 entry exceeds this (0 = no gate)")

	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errBadFlags, err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return errBadFlags
	}

	cfg := aliaslimit.AliasdConfig{
		MaxSessions:    *maxSessions,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		MaxScale:       *maxScale,
	}

	if *loadtest {
		opts := aliaslimit.AliasdLoadOptions{
			Clients:  *clients,
			Requests: *requests,
			Batch:    *batch,
			Scale:    *scale,
			Seed:     *seed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		}
		if *quick {
			opts.Clients = 4
			opts.Requests = 10
			opts.Batch = 300
		}
		return runLoadTest(cfg, opts, *jsonPath, *maxP99, stdout, stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ready := make(chan string, 1)
	go func() {
		fmt.Fprintf(stderr, "aliasd: listening on http://%s (Ctrl-C drains and exits)\n", <-ready)
	}()
	return aliaslimit.ServeAliasd(ctx, *addr, cfg, ready)
}

// runLoadTest drives the harness, renders the human summary, optionally
// writes the bench-gate JSON, and enforces the p99 ceiling last so a gate
// failure still leaves the report on disk for CI artifacts.
func runLoadTest(cfg aliaslimit.AliasdConfig, opts aliaslimit.AliasdLoadOptions, jsonPath string, maxP99 time.Duration, stdout, stderr io.Writer) error {
	rep, err := aliaslimit.RunAliasdLoadTest(cfg, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "aliasd loadtest: scale %g seed %d, %d tenants, %d observations each, %d retries, sets_digest %s\n",
		rep.Scale, rep.Seed, rep.Clients, rep.Observations, rep.Retries, rep.SetsDigest)
	for _, l := range rep.Latencies {
		fmt.Fprintf(stdout, "  %-8s n=%-5d p50=%8.2fms p90=%8.2fms p99=%8.2fms\n",
			l.Class, l.Count, l.P50ms, l.P90ms, l.P99ms)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if jsonPath == "-" {
			if _, err := stdout.Write(data); err != nil {
				return err
			}
		} else {
			if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
				return fmt.Errorf("write latency report: %w", err)
			}
			fmt.Fprintf(stderr, "aliasd: wrote latency report to %s\n", jsonPath)
		}
	}

	if maxP99 > 0 {
		var over []string
		for _, e := range rep.Results {
			if !strings.HasSuffix(e.Name, "_p99") {
				continue
			}
			if e.NsPerOp > float64(maxP99.Nanoseconds()) {
				over = append(over, fmt.Sprintf("%s %.2fms", e.Name, e.NsPerOp/1e6))
			}
		}
		if len(over) > 0 {
			sort.Strings(over)
			return fmt.Errorf("p99 gate: %s exceed the %v ceiling", strings.Join(over, ", "), maxP99)
		}
		fmt.Fprintf(stdout, "p99 gate: all classes under %v\n", maxP99)
	}
	return nil
}
