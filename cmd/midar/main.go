// Command midar runs the IPID-based baseline standalone: it builds a world,
// scans SSH to obtain candidate alias sets, classifies every candidate
// address's IPID behaviour, and verifies the sets with the Monotonic Bounds
// Test pipeline — reproducing the paper's finding that only a small slice of
// modern devices still expose a usable shared counter.
//
// Usage:
//
//	midar -scale 0.25 -sample 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
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
		fmt.Fprintf(os.Stderr, "midar: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("midar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.25, "world scale")
	seed := fs.Uint64("seed", 1, "world seed")
	sample := fs.Int("sample", 61, "number of candidate SSH sets to verify")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	if *sample < 0 {
		fmt.Fprintf(stderr, "midar: -sample %d is negative\n", *sample)
		return errBadFlags
	}

	cfg := topo.Default()
	cfg.Seed = *seed
	cfg.Scale = *scale
	world, err := topo.Build(cfg)
	if err != nil {
		return err
	}
	active, err := experiments.CollectActive(world, experiments.ScanOptions{Seed: *seed})
	if err != nil {
		return err
	}

	sets := alias.NonSingleton(alias.FilterFamily(alias.Group(active.Obs[ident.SSH]), true))
	var candidates []alias.Set
	for _, s := range sets {
		if s.Size() <= 10 {
			candidates = append(candidates, s)
		}
	}
	// Canonical order via the binary set key; Signature stays for the
	// human-readable split report below.
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].Key() < candidates[j].Key()
	})
	if len(candidates) > *sample {
		candidates = candidates[:*sample]
	}
	fmt.Fprintf(stdout, "verifying %d candidate SSH alias sets (of %d eligible)\n", len(candidates), len(sets))

	session := midar.NewSession(world.Fabric.Vantage(topo.VantageMIDAR), world.Clock, midar.Config{})

	// Estimation-stage census across all candidate addresses.
	classCount := map[midar.Class]int{}
	for _, c := range candidates {
		for _, cl := range session.ClassifyTargets(c.Addrs) {
			classCount[cl]++
		}
	}
	fmt.Fprintln(stdout, "IPID counter census over candidate addresses:")
	for _, cl := range []midar.Class{midar.ClassUsable, midar.ClassConstant, midar.ClassTooFast, midar.ClassUnresponsive} {
		fmt.Fprintf(stdout, "  %-13s %d\n", cl, classCount[cl])
	}

	results, tally := session.VerifySets(candidates)
	fmt.Fprintf(stdout, "verification: confirmed=%d split=%d unverifiable=%d (verifiable fraction %.0f%%)\n",
		tally.Confirmed, tally.Split, tally.Unverifiable,
		100*float64(tally.Verifiable())/float64(maxInt(len(candidates), 1)))
	for _, r := range results {
		if r.Outcome == midar.OutcomeSplit {
			fmt.Fprintf(stdout, "  split: %s -> %d groups\n", r.Candidate.Signature(), len(r.Partition))
		}
	}
	fmt.Fprintf(stdout, "simulated measurement time elapsed: %v\n", world.Clock.Now().Sub(topo.Origin))
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
