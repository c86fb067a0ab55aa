// Command perfbench is the repository benchmark. It runs one named workload
// of the alias-resolution pipeline in this process, with no network access,
// and prints the end-to-end metrics (or, traced, the per-layer metrics) as
// one JSON object on the last line of standard output:
//
//	study         the paper's one-shot study on the baseline world (scale
//	              0.15, in-RAM collection, batch backend): both campaigns,
//	              every scored partition, MIDAR, ground-truth scoring, the
//	              sets digest and a cold render of every table and figure
//	longitudinal  churn-storm over three epochs (scale 0.08), durable and
//	              out-of-core: observations spill to an observation log,
//	              each epoch is sealed by replay and checkpointed, and every
//	              committed epoch is read back and re-resolved as a resume
//	              checks it
//	daemon        an in-process aliasd server on a loopback listener and
//	              closed-loop clients, one connection each, that repeatedly
//	              create a session, ingest a seed-shuffled corpus (scale
//	              0.1) in 400-line batches, flush and read one view after
//	              each batch, check the final digest and delete the session
//
// The seed names a family of three worlds; iteration i of a run measures
// world i mod 3, so every figure rests on several worlds. A time figure is
// the mean over worlds of each world's median (for the daemon, the median
// over its session cycles). Every time is rescaled by a speedometer that
// runs beside the workload, which takes the shared host's drifting speed out
// of it (see speed.go); the report keeps the raw times too. Runs keep the
// runtime's GOMAXPROCS (one per CPU, unless the GOMAXPROCS environment
// variable says otherwise) and refuse a GOMAXPROCS above the CPU count; the
// daemon's clients never exceed it.
//
// The end-to-end metrics: setup_s (world or corpus build), wall_s (the
// timed part of one iteration, or one daemon session cycle), peak_rss_mib
// (the most memory the Go runtime held during a world's first iteration, or
// during the daemon's least second, sampled every 5 ms), ingest and query
// latency (a 400-line ingest request and a view read for the daemon; the
// time collection takes to deliver 400 observations and the first read of
// every scored view for the others), and success_rate (operations that
// neither failed nor mismatched a digest). A latency is reported as its
// median and its tail, the higher of the percentiles 90 and 99 with at least
// ten samples beyond it.
//
// Every output's sets_digest is checked: against the digests shipped for
// the default and held-out seeds, and against a re-resolution of the same
// observations through a second resolver backend. A traced run (--trace 1)
// records spans around the benchmark's calls into each layer's public
// functions, alternates traced and untraced iterations to measure the
// tracing overhead, probes the layers the workload runs only inside one call
// (or not at all) on a twin of its world, and writes every span to a trace
// file next to the run's report.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	scale    float64
	out      string
}

// runCtx is what a workload receives.
type runCtx struct {
	config
	// budget is how long the timed loop may run.
	budget time.Duration
	// tr is non-nil in traced runs.
	tr *tracer
	// tmp is a scratch directory inside the output directory.
	tmp string
	ops tally
	lat *book
	mem *memSampler
}

// minIter is the fewest iterations a run makes: a traced run needs a traced
// and an untraced one.
func (rc *runCtx) minIter() int {
	if rc.tr != nil {
		return 2
	}
	return 1
}

// family is how many worlds a run measures. Iteration i runs on world
// i mod family, so a run of several iterations repeats every world.
const family = 3

// worldSeed is the seed of world w of a run's family, drawn from the run
// seed's splitmix sequence: the same seed always yields the same worlds.
func worldSeed(seed uint64, w int) uint64 {
	return xrand.NewSplitMix64(seed).Fork(fmt.Sprintf("world-%d", w)).Uint64()
}

// freeMemory collects what earlier work left behind. Called once that work
// is released (at the top of an iteration, after the previous one has
// returned and its deferred closes have run), it lets each iteration start
// from the same live heap, so the peak memory is that iteration's, not an
// accident of GC timing.
func freeMemory() { runtime.GC() }

// iterTracer returns the tracer for iteration i: in a traced run odd
// iterations are traced and even ones are not, so one run measures both.
func (rc *runCtx) iterTracer(i int) *tracer {
	if rc.tr != nil && i%2 == 1 {
		return rc.tr
	}
	return nil
}

// outcome is what a workload measured.
type outcome struct {
	// setup holds one set-up time per set-up round, in seconds.
	setup samples
	// wall holds the timed-part time of each untraced iteration, and traced
	// of each traced one, in seconds.
	wall, traced samples
	// mem holds the peak memory held in each untraced iteration (for the
	// daemon, in each second of the closed loop), in MiB.
	mem samples
	// params are the workload parameters recorded in the report.
	params map[string]any
	// digests are the reference digests every check compared against.
	digests []string
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"study":        runStudy,
	"longitudinal": runLongitudinal,
	"daemon":       runDaemon,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: study, longitudinal or daemon")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&cfg.trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 0, "world scale; 0 picks the workload default (shipped digests hold only there)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for reports, traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have study, longitudinal, daemon)\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) || cfg.scale < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, and --scale >= 0")
		return 2
	}
	// Load discipline: never oversubscribe the CPUs the process may use. The
	// daemon's clients are capped at GOMAXPROCS, so this bounds them too.
	cpus := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > cpus {
		fmt.Fprintf(stderr, "perfbench: refusing GOMAXPROCS %d above %d cpus\n", p, cpus)
		return 2
	}

	rc := &runCtx{config: cfg, budget: time.Duration(cfg.seconds) * time.Second, lat: newBook()}
	rc.tmp = filepath.Join(cfg.out, fmt.Sprintf("tmp-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(rc.tmp)
	if cfg.trace == 1 {
		rc.tr = newTracer()
	}
	rc.mem = startMem()
	defer rc.mem.close()

	speed := startSpeedometer()
	out, err := wl(rc)
	speed.close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	var seeds []uint64
	for w := 0; w < family; w++ {
		seeds = append(seeds, worldSeed(cfg.seed, w))
	}
	out.params["world_seeds"] = seeds
	for _, s := range []*samples{&out.setup, &out.wall, &out.traced} {
		s.rescale(speed)
	}
	rc.lat.rescale(speed)
	res := result{
		Attempted: rc.ops.attempted,
		Failed:    rc.ops.failed,
		Metrics:   make(map[string]metric),
	}
	var sum *traceSummary
	if rc.tr != nil {
		sum = rc.tr.summarize("iteration", speed)
		layerMetrics(res.Metrics, sum, out)
		if c := median(sum.Coverage); c < 0.9 {
			rc.ops.fail("spans cover %.3f of the traced wall time, want >= 0.9", c)
		} else {
			rc.ops.ok()
		}
		res.Attempted, res.Failed = rc.ops.attempted, rc.ops.failed
	} else {
		endToEnd(res.Metrics, rc, out)
	}
	if res.Attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	res.Correct = res.Failed == 0

	rep := report(rc, out, res, sum)
	rep["speed"] = speed.summary()
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, cfg.trace)
	if err := writeJSON(filepath.Join(cfg.out, "report-"+name+".json"), rep); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing report:", err)
		return 1
	}
	if rc.tr != nil {
		if err := rc.tr.writeFile(filepath.Join(cfg.out, "trace-"+name+".json"), sum, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d cpus=%d gomaxprocs=%d go=%s commit=%s params=%s\n",
		cfg.workload, cfg.seed, cpus, runtime.GOMAXPROCS(0), runtime.Version(), commit(), compact(out.params))
	ingest, query := summarizeLatency(rc.lat.samples("ingest")), summarizeLatency(rc.lat.samples("query"))
	fmt.Fprintf(stdout, "perfbench: samples setup=%d wall=%d traced=%d mem=%d ingest=%d (tail p%g, %d beyond) query=%d (tail p%g, %d beyond)\n",
		len(out.setup.vals), len(out.wall.vals), len(out.traced.vals), len(out.mem.vals),
		ingest.Count, ingest.TailPct, ingest.Beyond, query.Count, query.TailPct, query.Beyond)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd fills the untraced run's metrics.
func endToEnd(m map[string]metric, rc *runCtx, out *outcome) {
	ingest := summarizeLatency(rc.lat.samples("ingest"))
	query := summarizeLatency(rc.lat.samples("query"))
	m["setup_s"] = metric{out.setup.stat(), "s"}
	m["wall_s"] = metric{out.wall.stat(), "s"}
	m["peak_rss_mib"] = metric{out.mem.least(), "MiB"}
	m["ingest_p50_ms"] = metric{ingest.P50, "ms"}
	m["ingest_tail_ms"] = metric{ingest.Tail, "ms"}
	m["query_p50_ms"] = metric{query.P50, "ms"}
	m["query_tail_ms"] = metric{query.Tail, "ms"}
	m["success_rate"] = metric{float64(rc.ops.attempted-rc.ops.failed) / float64(max(rc.ops.attempted, 1)), "ratio"}
}

// report is the full record of a run, written next to the traces.
func report(rc *runCtx, out *outcome, res result, sum *traceSummary) map[string]any {
	return map[string]any{
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"params":     out.params,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"setup_s":    out.setup,
		"wall_s":     out.wall,
		"mem_mib":    out.mem,
		"traced_s":   out.traced,
		"ingest_ms":  summarizeLatency(rc.lat.samples("ingest")),
		"query_ms":   summarizeLatency(rc.lat.samples("query")),
		"raw": map[string]any{
			"setup_s":   out.setup.raw,
			"wall_s":    out.wall.raw,
			"traced_s":  out.traced.raw,
			"ingest_ms": summarizeLatency(rc.lat.rawSamples("ingest")),
			"query_ms":  summarizeLatency(rc.lat.rawSamples("query")),
		},
		"digests":   out.digests,
		"failures":  rc.ops.reasons,
		"result":    res,
		"trace_sum": sum,
	}
}

// commit names the source revision: PERFBENCH_COMMIT when the wrapper could
// read it, else the revision the Go toolchain stamped, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// compact renders a value as one-line JSON.
func compact(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "?"
	}
	return string(data)
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loop runs iterations until starting another would overrun the budget, but
// at least minIter of them. The estimate for the next iteration is the
// longest one so far.
func loop(budget time.Duration, minIter int, iter func(i int) error) error {
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		if i >= minIter && time.Since(start)+longest > budget {
			return nil
		}
		t0 := time.Now()
		if err := iter(i); err != nil {
			return err
		}
		longest = max(longest, time.Since(t0))
	}
}

// ingestSink taps the collection's observation stream. It counts
// observations per protocol and times every batch of ingestBatch
// observations that reaches the resolver side, so collection reports an
// ingest latency in the same unit as the daemon's 400-line requests.
type ingestSink struct {
	n    [3]atomic.Int64
	all  atomic.Int64
	mu   sync.Mutex
	mark time.Time
	lat  *book
}

// ingestBatch is the observation count of one ingest operation.
const ingestBatch = 400

// reset zeroes the counters and starts the first batch now.
func (s *ingestSink) reset() {
	for i := range s.n {
		s.n[i].Store(0)
	}
	s.all.Store(0)
	s.mu.Lock()
	s.mark = time.Now()
	s.mu.Unlock()
}

// Observe implements experiments.ObservationSink.
func (s *ingestSink) Observe(p ident.Protocol, _ alias.Observation) {
	s.n[p].Add(1)
	if s.all.Add(1)%ingestBatch != 0 || s.lat == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	mark := s.mark
	s.mark = now
	s.mu.Unlock()
	s.lat.add("ingest", mark, now.Sub(mark))
}

// count returns the observations seen for one protocol.
func (s *ingestSink) count(p ident.Protocol) float64 { return float64(s.n[p].Load()) }
