// Command benchtables regenerates every table and figure of the paper's
// evaluation from a freshly built and measured synthetic Internet.
//
// Usage:
//
//	benchtables                      # everything at the default scale
//	benchtables -scale 1 -seed 3     # full calibrated scale
//	benchtables -table 3             # one table
//	benchtables -figure 5            # one figure
//
// It also hosts the CI bench-regression gate:
//
//	benchtables -benchjson BENCH_analysis.json
//	benchtables -compare BENCH_baseline.json -against BENCH_analysis.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"aliaslimit"
	"aliaslimit/internal/experiments"
)

// errBadFlags marks argument errors the flag package has already reported;
// main maps it to the conventional usage exit code 2.
var errBadFlags = errors.New("bad arguments")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h/-help: usage was printed; asking for help is not a failure.
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(1)
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

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.25, "world scale (1.0 ≈ 1:1000 of the paper's Internet)")
	seed := fs.Uint64("seed", 1, "world seed")
	workers := fs.Int("workers", 0, fmt.Sprintf("goroutines per scan pool (0 = 4 × GOMAXPROCS; at most %d)", experiments.MaxWorkers))
	parallelism := fs.Int("parallelism", 0, "concurrent protocol sweeps (0 = all at once, 1 = sequential)")
	streamCollect := fs.Bool("stream-collect", false, "out-of-core collection: spill observations to disk during the scan and replay them in bounded batches — identical tables, peak memory O(alias-set output) instead of O(observations)")
	table := fs.String("table", "", "regenerate a single table (1-6)")
	figure := fs.String("figure", "", "regenerate a single figure (3-6)")
	extensions := fs.Bool("extensions", false, "also run the future-work extension experiments")
	benchJSON := fs.String("benchjson", "", "measure the analysis hot paths and write BENCH_analysis.json to this path (- for stdout)")
	compare := fs.String("compare", "", "bench-regression gate: baseline BENCH_*.json to compare -against")
	against := fs.String("against", "", "current BENCH_*.json for the -compare gate")
	maxRegress := fs.Float64("maxregress", 0.30, "fail -compare when any entry is this fraction slower")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}

	if *streamCollect && (*benchJSON != "" || *compare != "" || *against != "") {
		// The bench harness measures the streamed path itself (the
		// stream_collect and stream_replay_group entries); the flag shapes
		// table/figure study runs only.
		fmt.Fprintln(stderr, "benchtables: -stream-collect shapes study runs; the bench harness measures the streamed path on its own")
		return errBadFlags
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *compare != "" || *against != "" {
		if *compare == "" || *against == "" {
			fmt.Fprintln(stderr, "benchtables: -compare and -against must be used together")
			return errBadFlags
		}
		return runCompare(*compare, *against, *maxRegress, stdout)
	}

	if *benchJSON != "" {
		return writeBenchJSON(*benchJSON, *scale, *seed, *workers, *parallelism, stdout, stderr)
	}

	start := time.Now()
	study, err := aliaslimit.Run(aliaslimit.StudyOptions{
		Common: aliaslimit.Common{
			Seed: *seed, Scale: *scale, Workers: *workers, Parallelism: *parallelism,
			StreamCollect: *streamCollect,
		},
	})
	if err != nil {
		return err
	}
	defer study.Close()
	fmt.Fprintf(stderr, "world built and measured in %v\n", time.Since(start).Round(time.Millisecond))

	switch {
	case *table != "":
		out, err := study.RenderTable(*table)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
	case *figure != "":
		out, err := study.RenderFigure(*figure)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
	default:
		fmt.Fprint(stdout, study.RenderAll())
		if *extensions {
			out, err := study.RenderExtensions()
			if err != nil {
				return fmt.Errorf("extensions: %w", err)
			}
			fmt.Fprint(stdout, out)
		}
	}
	return nil
}
