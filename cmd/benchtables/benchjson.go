package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aliaslimit"
	"aliaslimit/internal/alias"
	"aliaslimit/internal/atomicio"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/xrand"
)

// benchEntry is one measured operation in BENCH_analysis.json.
type benchEntry struct {
	// Name identifies the operation ("table3_render", "grouping_union_ssh").
	Name string `json:"name"`
	// NsPerOp is the mean wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// Ops is how many iterations the mean was taken over.
	Ops int `json:"ops"`
	// AllocsPerOp and BytesPerOp are the mean heap allocations and bytes
	// per operation, present only for the alloc-gated entries (zero-alloc
	// hot paths priced alongside their wall clock). Compared by the alloc
	// branch of the -compare gate.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// benchReport is the machine-readable perf-trajectory artifact the CI
// bench-smoke job uploads: one file per run, comparable across commits.
type benchReport struct {
	// Scale and Seed identify the measured world.
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
	// CPUs is runtime.NumCPU on the measuring host; GoMaxProcs is the
	// GOMAXPROCS the run actually used — the provenance pair that makes
	// bench JSONs from differently-sized runners interpretable.
	CPUs       int `json:"cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	// GoOS and GoArch identify the platform.
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	// PeakRSSBytes is the process's peak resident set (VmHWM) when the
	// measurements finished, in bytes; 0 where the platform does not expose
	// it. Provenance, not a gated entry: it makes the bounded-memory claim
	// behind the stream_* entries auditable across runs.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// Results holds the measurements.
	Results []benchEntry `json:"results"`
}

// peakRSSBytes reads the process's peak resident set from /proc/self/status
// (VmHWM, reported in kB); 0 where the file or the field is unavailable.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// measure runs f repeatedly for a small time budget and reports mean ns/op.
func measure(name string, f func()) benchEntry {
	const budget = 150 * time.Millisecond
	start := time.Now()
	ops := 0
	for {
		f()
		ops++
		if el := time.Since(start); el >= budget || ops >= 1_000_000 {
			return benchEntry{Name: name, Ops: ops, NsPerOp: float64(el.Nanoseconds()) / float64(ops)}
		}
	}
}

// measureAlloc is measure plus heap accounting: it warms f once (the gated
// paths are steady-state arenas — first-call growth is priced separately by
// the wall-clock entries) and reports mean allocations and bytes per op from
// the runtime's monotonic malloc counters.
func measureAlloc(name string, f func()) benchEntry {
	f() // warm the arena: the gate prices steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := measure(name, f)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(e.Ops)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(e.Ops)
	e.AllocsPerOp, e.BytesPerOp = &allocs, &bytes
	return e
}

// writeBenchJSON builds a study, measures the analysis hot paths (grouping,
// merge, per-table and per-figure render, full Run), and writes the JSON
// report to path ("-" for stdout).
func writeBenchJSON(path string, scale float64, seed uint64, workers, parallelism int, stdout, stderr io.Writer) error {
	rep := benchReport{
		Scale: scale, Seed: seed,
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
	}

	// Full pipeline: world generation, both measurement campaigns, facade.
	start := time.Now()
	study, err := aliaslimit.Run(aliaslimit.StudyOptions{
		Common: aliaslimit.Common{
			Seed: seed, Scale: scale, Workers: workers, Parallelism: parallelism,
		},
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, benchEntry{
		Name: "run_full", Ops: 1, NsPerOp: float64(time.Since(start).Nanoseconds()),
	})

	// First full render: every memoized view cold, including the MIDAR run.
	start = time.Now()
	study.RenderAll()
	rep.Results = append(rep.Results, benchEntry{
		Name: "render_all_cold", Ops: 1, NsPerOp: float64(time.Since(start).Nanoseconds()),
	})

	// The multi-epoch pipeline at a fixed small scale (independent of -scale
	// so the longitudinal entry stays comparable across gate workloads):
	// three snapshot→churn→scan rounds plus the longitudinal scoring layer.
	start = time.Now()
	if _, err := aliaslimit.RunLongitudinal("baseline", aliaslimit.LongitudinalOptions{
		ScenarioOptions: aliaslimit.ScenarioOptions{
			Common: aliaslimit.Common{
				Seed: seed, Scale: 0.05, Workers: workers, Parallelism: parallelism,
			},
		},
		Epochs: 3,
	}); err != nil {
		return err
	}
	rep.Results = append(rep.Results, benchEntry{
		Name: "run_longitudinal", Ops: 1, NsPerOp: float64(time.Since(start).Nanoseconds()),
	})

	// The megascale-x10 preset's pipeline at a fixed small scale (like
	// run_longitudinal: independent of -scale so the entry stays comparable
	// across gate workloads) — the throughput preset the zero-alloc hot
	// paths exist for.
	start = time.Now()
	if _, err := aliaslimit.RunScenario("megascale-x10", aliaslimit.ScenarioOptions{
		Common: aliaslimit.Common{
			Seed: seed, Scale: 0.05, Workers: workers, Parallelism: parallelism,
		},
	}); err != nil {
		return err
	}
	rep.Results = append(rep.Results, benchEntry{
		Name: "run_megascale_x10", Ops: 1, NsPerOp: float64(time.Since(start).Nanoseconds()),
	})

	env := study.Env()

	// Alloc-gated entries: the zero-alloc contracts, priced with heap
	// accounting so the -compare gate catches allocation regressions the
	// wall clock hides.
	grouper := alias.NewGrouper()
	var groupSets []alias.Set
	var groupBacking []netip.Addr
	rep.Results = append(rep.Results,
		measureAlloc("grouping_steady_state", func() {
			grouper.Reset()
			for _, o := range env.Both.Obs[ident.SSH] {
				grouper.Observe(o)
			}
			groupSets, groupBacking = grouper.AppendSets(groupSets[:0], groupBacking[:0])
		}),
	)
	drawAddr := netip.AddrFrom4([4]byte{203, 0, 113, 9})
	faults := netsim.Faults{Seed: seed, LossRate: 0.03, ThrottleRate: 0.05}
	rep.Results = append(rep.Results,
		measureAlloc("fault_draw", func() {
			faults.Draw("active", drawAddr, 22)
		}),
		measureAlloc("keyed_draw", func() {
			k := xrand.NewHasher()
			k.KeyUint(seed)
			k.Key("wire-down")
			k.KeyInt(1)
			k.Key("device-0001")
			k.KeyAddr(drawAddr)
			_ = k.Prob()
		}),
	)

	// Durability hot paths: the per-observation log append (alloc-gated — it
	// sits on the collection path of every durable run) and a full one-epoch
	// replay from disk (the resume path's per-epoch cost).
	logDir, err := os.MkdirTemp("", "benchtables-obslog-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(logDir)
	lw, err := obslog.Create(logDir, obslog.RunMeta{Scenario: "bench", Seed: seed, Scale: scale, Epochs: 1},
		obslog.Options{Sync: obslog.SyncNever})
	if err != nil {
		return err
	}
	defer lw.Close()
	logObs := env.Both.Obs[ident.SSH]
	logSink := lw.Sink(obslog.SourceActive)
	logNext := 0
	rep.Results = append(rep.Results,
		measureAlloc("obslog_append", func() {
			logSink.Observe(ident.SSH, logObs[logNext%len(logObs)])
			logNext++
		}),
	)
	for _, p := range ident.Protocols {
		for _, o := range env.Both.Obs[p] {
			lw.Sink(obslog.SourceActive).Observe(p, o)
		}
	}
	if err := lw.CompleteEpoch(0, "", 0); err != nil {
		return err
	}
	rep.Results = append(rep.Results,
		measure("obslog_replay", func() {
			if _, err := obslog.Replay(logDir, 0); err != nil {
				panic(err)
			}
		}),
	)

	// Out-of-core entries. stream_collect is one full scenario pipeline with
	// the scan spilling to disk and the analyses fed by bounded-batch replay —
	// fixed small scale, like run_longitudinal, so the entry stays comparable
	// across gate workloads. stream_replay_group streams the epoch just logged
	// above back through a batch resolver session, pricing the grouping leg of
	// the replay pass in isolation.
	start = time.Now()
	if _, err := aliaslimit.RunScenario("baseline", aliaslimit.ScenarioOptions{
		Common: aliaslimit.Common{
			Seed: seed, Scale: 0.05, Workers: workers, Parallelism: parallelism,
			StreamCollect: true,
		},
	}); err != nil {
		return err
	}
	rep.Results = append(rep.Results, benchEntry{
		Name: "stream_collect", Ops: 1, NsPerOp: float64(time.Since(start).Nanoseconds()),
	})
	rep.Results = append(rep.Results,
		measure("stream_replay_group", func() {
			ses := resolver.NewSession()
			r, err := obslog.OpenEpoch(logDir, ident.SSH, 0, obslog.ReadOptions{})
			if err != nil {
				panic(err)
			}
			for {
				_, o, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					panic(err)
				}
				ses.Observe(o)
			}
			r.Close()
			ses.Sets(ident.SSH)
		}),
	)

	rep.Results = append(rep.Results,
		measure("grouping_union_ssh", func() { alias.Group(env.Both.Obs[ident.SSH]) }),
		measure("merge_union_v4", func() {
			alias.Merge(
				env.Both.NonSingletonFamilySets(ident.SSH, true),
				env.Both.NonSingletonFamilySets(ident.BGP, true),
				env.Active.NonSingletonFamilySets(ident.SNMP, true),
			)
		}),
	)

	// Resolution cost: the bench-regression gate's resolve_batch entries.
	// Each iteration is one full session lifecycle — open, feed the SSH
	// union and pull the grouped sets (or merge the per-protocol sets) —
	// matching how the analysis layer drives a session.
	groupObs := env.Both.Obs[ident.SSH]
	mergeGroups := [][]alias.Set{
		env.Both.NonSingletonFamilySets(ident.SSH, true),
		env.Both.NonSingletonFamilySets(ident.BGP, true),
		env.Active.NonSingletonFamilySets(ident.SNMP, true),
	}
	rep.Results = append(rep.Results,
		measure("resolve_batch_group", func() {
			ses := resolver.NewSession()
			for _, o := range groupObs {
				ses.Observe(o)
			}
			ses.Sets(ident.SSH)
		}),
		measure("resolve_batch_merge", func() {
			resolver.NewSession().Merged(mergeGroups...)
		}),
	)
	for _, id := range study.TableIDs() {
		id := id
		name := fmt.Sprintf("table%c_render", id[len(id)-1])
		rep.Results = append(rep.Results, measure(name, func() { study.RenderTable(id) }))
	}
	for _, id := range study.FigureIDs() {
		id := id
		name := fmt.Sprintf("figure%c_render", id[len(id)-1])
		rep.Results = append(rep.Results, measure(name, func() { study.RenderFigure(id) }))
	}
	rep.Results = append(rep.Results, measure("render_all_warm", func() { study.RenderAll() }))
	rep.PeakRSSBytes = peakRSSBytes()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	// Temp file + rename: a crash mid-write must not leave a truncated report
	// where the previous gate baseline stood.
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "benchtables: wrote %d measurements to %s\n", len(rep.Results), path)
	return nil
}
