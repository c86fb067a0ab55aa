// Command scenarios runs the adversarial-world presets and scores the
// inference pipeline against the simulator's ground truth.
//
// Usage:
//
//	scenarios -list                          # the preset catalog
//	scenarios -run baseline                  # one scenario, text scorecard
//	scenarios -run all -quick -json SCENARIOS.json
//	scenarios -run churn-storm -epochs 5     # longitudinal: N snapshot rounds
//	scenarios -run churn-storm -epochs 5 -log RUN  # durable: observation log +
//	                                         # per-epoch checkpoints under RUN/
//	scenarios -resume RUN                    # continue a killed durable run
//	scenarios -run megascale-x100 -stream-collect  # out-of-core collection:
//	                                         # scan→disk→replayed grouping,
//	                                         # bounded memory at any scale
//	scenarios -run baseline -sweep loss=1,5,10,20,30 -json SWEEP-loss.json
//	scenarios -run churn-storm -sweep decay=30,50,70,90 -json SWEEP-decay.json
//	scenarios -merge 'SCENARIOS-*.json' -json SCENARIOS.json
//
// The CI scenario-matrix job runs every preset with -quick -json, the
// longitudinal job runs the pinned presets with -epochs 5, and the per-run
// files merge into the SCENARIOS.json artifact with -merge. The nightly sweep
// job emits per-axis degradation curves with -sweep.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"aliaslimit/internal/atomicio"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/scenario"
)

// errBadFlags marks argument errors the flag package has already reported;
// main maps it to the conventional usage exit code 2.
var errBadFlags = errors.New("bad arguments")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the scenario catalog and exit")
	runName := fs.String("run", "", "scenario to run: a preset name, or 'all'")
	quick := fs.Bool("quick", false, "CI-sized worlds (each preset's quick scale)")
	seed := fs.Uint64("seed", 0, "world seed (0 keeps the default)")
	scale := fs.Float64("scale", 0, "world scale override (0 keeps the preset scale)")
	workers := fs.Int("workers", 0, fmt.Sprintf("goroutines per scan pool (0 = 4 × GOMAXPROCS; at most %d)", experiments.MaxWorkers))
	parallelism := fs.Int("parallelism", 0, "concurrent protocol sweeps (0 = all at once)")
	epochs := fs.Int("epochs", 1, "snapshot rounds per scenario; >1 runs the longitudinal pipeline")
	decay := fs.Float64("decay", 0, "decay factor for the longitudinal decay-weighted merge (0 = default 0.5)")
	streamCollect := fs.Bool("stream-collect", false, "out-of-core collection: spill observations to disk during the scan and replay them through the resolver in bounded batches — identical alias sets, peak memory O(alias-set output) instead of O(observations); required by stream-only worlds (megascale-x100)")
	logDir := fs.String("log", "", "write a durable observation log + epoch checkpoints under this directory (single preset); a killed run continues with -resume")
	resume := fs.String("resume", "", "continue the killed durable run whose log lives under this directory")
	sweep := fs.String("sweep", "", "axis sweep, e.g. loss=1,5,10,20,30 (percent) or epochs=2,3,5; runs the -run preset per value")
	jsonPath := fs.String("json", "", "write the machine-readable report to this path (- for stdout)")
	merge := fs.String("merge", "", "merge existing report files matching this glob instead of running")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	opts := scenario.Options{
		Seed:          *seed,
		Scale:         *scale,
		Quick:         *quick,
		Workers:       *workers,
		Parallelism:   *parallelism,
		LogDir:        *logDir,
		StreamCollect: *streamCollect,
	}
	if *logDir != "" {
		// A durable log records exactly one run: multi-run modes would
		// interleave several runs' observations in one directory.
		switch {
		case *resume != "":
			return fmt.Errorf("-log starts a fresh durable run; -resume continues one — pick one")
		case *merge != "" || *sweep != "":
			return fmt.Errorf("-log records a single run; it cannot combine with -merge or -sweep")
		case *runName == "all":
			return fmt.Errorf("-log records a single run; pick one preset of %s",
				strings.Join(scenario.Names(), ", "))
		}
	}
	switch {
	case *list:
		return printCatalog(stdout)
	case *resume != "":
		if *runName != "" || *merge != "" || *sweep != "" {
			return fmt.Errorf("-resume takes the run's identity from its manifest; it cannot combine with -run, -merge, or -sweep")
		}
		return resumeLongitudinal(*resume, opts, *jsonPath, stdout, stderr)
	case *merge != "":
		return mergeReports(*merge, *jsonPath, stdout, stderr)
	case *sweep != "":
		return runSweep(*sweep, *runName, opts, *jsonPath, stdout, stderr)
	case *runName != "":
		if *epochs > 1 {
			return runLongitudinal(*runName, scenario.LongitudinalOptions{
				Options: opts,
				Epochs:  *epochs,
				Decay:   *decay,
			}, *jsonPath, stdout, stderr)
		}
		return runScenarios(*runName, opts, *jsonPath, stdout, stderr)
	default:
		fmt.Fprintln(stderr, "scenarios: one of -list, -run, -sweep, or -merge is required")
		fs.Usage()
		return errBadFlags
	}
}

// startProfiles turns on CPU profiling and/or arranges a heap profile dump,
// returning the stop function run defers. Empty paths are no-ops.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stop := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush garbage so the profile shows live + cumulative truthfully
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
	return stop, nil
}

// printCatalog lists every preset with its catalog line.
func printCatalog(w io.Writer) error {
	for _, p := range scenario.Presets() {
		fmt.Fprintf(w, "%-12s %s\n", p.Name, p.Summary)
	}
	return nil
}

// runScenarios executes one preset or the whole catalog and emits the
// scorecards as text or as a JSON report.
func runScenarios(name string, opts scenario.Options, jsonPath string, stdout, stderr io.Writer) error {
	names := []string{name}
	if name == "all" {
		// Stream-only worlds refuse to materialise in RAM, so a catalog run
		// without -stream-collect skips them (loudly) instead of failing.
		names = names[:0]
		for _, p := range scenario.Presets() {
			if p.StreamOnly && !opts.StreamCollect {
				fmt.Fprintf(stderr, "scenarios: skipping %s (stream-only world; add -stream-collect to include it)\n", p.Name)
				continue
			}
			names = append(names, p.Name)
		}
	}
	rep := &scenario.Report{}
	for _, n := range names {
		start := time.Now()
		res, err := scenario.Run(n, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "scenarios: %s (%s) done in %v\n",
			n, res.Backend, time.Since(start).Round(time.Millisecond))
		rep.Scenarios = append(rep.Scenarios, res)
	}
	if jsonPath == "" {
		for _, r := range rep.Scenarios {
			fmt.Fprintln(stdout, r.RenderText())
		}
		return nil
	}
	return writeReport(rep, jsonPath, stdout, stderr)
}

// runLongitudinal executes one preset (or the pinned longitudinal set with
// "all") over several epochs and emits the longitudinal scorecards.
func runLongitudinal(name string, opts scenario.LongitudinalOptions, jsonPath string, stdout, stderr io.Writer) error {
	names := []string{name}
	if name == "all" {
		names = scenario.LongitudinalNames()
	}
	rep := &scenario.Report{}
	for _, n := range names {
		start := time.Now()
		res, err := scenario.RunLongitudinal(n, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "scenarios: %s x%d epochs (%s) done in %v\n",
			n, opts.Epochs, res.Backend, time.Since(start).Round(time.Millisecond))
		rep.Longitudinal = append(rep.Longitudinal, res)
	}
	if jsonPath == "" {
		for _, r := range rep.Longitudinal {
			fmt.Fprintln(stdout, r.RenderText())
		}
		return nil
	}
	return writeReport(rep, jsonPath, stdout, stderr)
}

// resumeLongitudinal continues a killed durable run from its log directory.
// The run's identity (preset, seed, scale, epochs, decay) comes from the
// log's manifest; only execution knobs (workers, parallelism) come from
// the command line.
func resumeLongitudinal(dir string, opts scenario.Options, jsonPath string, stdout, stderr io.Writer) error {
	start := time.Now()
	res, err := scenario.ResumeLongitudinal(dir, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "scenarios: resumed %s x%d epochs (%s) from %s in %v\n",
		res.Scenario, len(res.Epochs), res.Backend, dir, time.Since(start).Round(time.Millisecond))
	if jsonPath == "" {
		fmt.Fprintln(stdout, res.RenderText())
		return nil
	}
	rep := &scenario.Report{Longitudinal: []*scenario.LongitudinalResult{res}}
	return writeReport(rep, jsonPath, stdout, stderr)
}

// runSweep parses an axis=values spec (percent values, except the epochs
// axis which takes snapshot-round counts), runs the sweep on the -run preset
// (baseline when unset), and emits the degradation curve.
func runSweep(spec, name string, opts scenario.Options, jsonPath string, stdout, stderr io.Writer) error {
	axis, valuesStr, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("bad -sweep %q: want axis=v1,v2,... (percent values; epoch counts for epochs)", spec)
	}
	var values []float64
	for _, f := range strings.Split(valuesStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad -sweep value %q: %w", f, err)
		}
		if axis != "epochs" {
			v /= 100
		}
		values = append(values, v)
	}
	if name == "" || name == "all" {
		name = "baseline"
	}
	start := time.Now()
	rep, err := scenario.RunSweep(axis, name, values, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "scenarios: sweep %s on %s (%d points) done in %v\n",
		axis, name, len(values), time.Since(start).Round(time.Millisecond))
	if jsonPath == "" {
		fmt.Fprintln(stdout, rep.RenderText())
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return writeJSON(data, jsonPath, fmt.Sprintf("sweep %s on %s", axis, name), stdout, stderr)
}

// mergeReports combines per-scenario report files (as the CI matrix produces)
// into one canonical report.
func mergeReports(glob, jsonPath string, stdout, stderr io.Writer) error {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return fmt.Errorf("bad -merge pattern %q: %w", glob, err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("-merge %q matched no files", glob)
	}
	sort.Strings(paths)
	merged := &scenario.Report{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rep, err := scenario.ParseReport(data)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		merged = scenario.Merge(merged, rep)
	}
	fmt.Fprintf(stderr, "scenarios: merged %d files (%d scenarios)\n", len(paths), len(merged.Scenarios))
	if jsonPath == "" {
		jsonPath = "-"
	}
	return writeReport(merged, jsonPath, stdout, stderr)
}

// writeReport marshals the report to path ("-" for stdout).
func writeReport(rep *scenario.Report, path string, stdout, stderr io.Writer) error {
	data, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	var names []string
	for _, r := range rep.Scenarios {
		names = append(names, r.Scenario)
	}
	for _, r := range rep.Longitudinal {
		names = append(names, fmt.Sprintf("%s x%d epochs", r.Scenario, len(r.Epochs)))
	}
	return writeJSON(data, path, strings.Join(names, ", "), stdout, stderr)
}

// writeJSON emits report bytes to path ("-" for stdout), logging what was
// written to stderr. File writes go through a temp file and an atomic rename,
// so a crash or full disk mid-write never leaves a truncated report where a
// previous good one stood.
func writeJSON(data []byte, path, what string, stdout, stderr io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "scenarios: wrote %s (%s)\n", path, what)
	return nil
}
