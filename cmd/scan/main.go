// Command scan runs the paper's measurement pipeline against a freshly
// generated synthetic Internet and emits identifier observations as JSON
// lines (see internal/obsfile for the schema). The output feeds
// cmd/resolve, mirroring the paper's split between data collection
// (ZMap/ZGrab2/Censys) and analysis.
//
// Usage:
//
//	scan -scale 0.25 -vantage active  > active.jsonl
//	scan -scale 0.25 -vantage censys  > censys.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/topo"
)

// errBadFlags marks argument errors the flag package (or run itself) has
// already reported; main maps it to the conventional usage exit code 2.
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
		fmt.Fprintf(os.Stderr, "scan: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: flags in, JSONL out.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.25, "world scale (1.0 ≈ 1:1000 of the paper's Internet)")
	seed := fs.Uint64("seed", 1, "world seed")
	vantage := fs.String("vantage", "active", "vantage point: active or censys")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	collect := experiments.CollectActive
	switch *vantage {
	case "active":
	case "censys":
		collect = experiments.CollectCensys
	default:
		return fmt.Errorf("unknown vantage %q (want active or censys)", *vantage)
	}

	cfg := topo.Default()
	cfg.Seed = *seed
	cfg.Scale = *scale

	start := time.Now()
	world, err := topo.Build(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "world: %d devices, %d IPv4 targets, %d IPv6 bound (built in %v)\n",
		world.Fabric.NumDevices(), len(world.V4Universe()), len(world.V6Bound()),
		time.Since(start).Round(time.Millisecond))

	ds, err := collect(world, experiments.ScanOptions{Seed: *seed})
	if err != nil {
		return err
	}

	var all []alias.Observation
	for _, p := range ident.Protocols {
		all = append(all, ds.Obs[p]...)
	}
	if err := obsfile.Write(stdout, all); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "emitted %d observations from vantage %q\n", len(all), *vantage)
	return nil
}
