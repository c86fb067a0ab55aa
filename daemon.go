package aliaslimit

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"aliaslimit/internal/aliasd"
)

// Resolution as a service. The library above runs one measurement to
// completion and analyses it; the aliasd layer keeps the resolver running:
// an HTTP daemon with independent per-tenant sessions that ingest NDJSON
// observation streams into live grouping structures and answer alias-set
// queries online, with explicit backpressure (429 + Retry-After) instead of
// silent drops and a drain-on-shutdown guarantee for accepted observations.
// See internal/aliasd for the architecture and docs/API.md for the wire
// protocol.

// AliasdConfig tunes the resolution daemon (session capacity, ingest queue
// depth, request timeout, world-scale ceiling).
type AliasdConfig = aliasd.Config

// AliasdLoadOptions and AliasdLoadReport parameterise and report the
// daemon's load-test harness (cmd/aliasd -loadtest).
type (
	AliasdLoadOptions = aliasd.LoadOptions
	AliasdLoadReport  = aliasd.LoadReport
)

// RunAliasdLoadTest builds a measured corpus world, starts a daemon on a
// loopback listener, and drives it with concurrent tenants, reporting
// latency percentiles in the bench-gate JSON shape. Every tenant's final
// sets_digest must equal the sealed environment's digest over the same
// corpus.
func RunAliasdLoadTest(cfg AliasdConfig, opts AliasdLoadOptions) (*AliasdLoadReport, error) {
	return aliasd.RunLoadTest(cfg, opts)
}

// ServeAliasd runs the resolution daemon on addr ("127.0.0.1:0" picks a free
// port) until ctx is cancelled, then drains every session before returning:
// accepted observations are applied, not dropped. If ready is non-nil it
// receives the bound address once the daemon is listening.
func ServeAliasd(ctx context.Context, addr string, cfg AliasdConfig, ready chan<- string) error {
	srv := aliasd.NewServer(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("aliaslimit: aliasd listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			hs.Close()
			return fmt.Errorf("aliaslimit: aliasd drain: %w", err)
		}
		return hs.Shutdown(drainCtx)
	case err := <-errc:
		return fmt.Errorf("aliaslimit: aliasd serve: %w", err)
	}
}
