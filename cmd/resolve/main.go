// Command resolve reads identifier observations (the JSONL that cmd/scan
// emits, possibly from several vantage points) and runs the paper's
// inference: alias sets per protocol, the cross-protocol union, and
// dual-stack sets.
//
// Usage:
//
//	resolve active.jsonl censys.jsonl
//	resolve -sets active.jsonl          # also dump every non-singleton set
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
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
		fmt.Fprintf(os.Stderr, "resolve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("resolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dumpSets := fs.Bool("sets", false, "dump every non-singleton alias set")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: resolve [-sets] <observations.jsonl>...")
		return errBadFlags
	}

	s := resolver.NewSession()
	observed := make([]int, len(ident.Protocols))
	for _, path := range fs.Args() {
		if err := load(s, observed, path); err != nil {
			return err
		}
	}

	parts := make(map[string][]alias.Set)
	for _, p := range scenario.SessionPartitions(s) {
		parts[p.Name] = p.Sets
	}
	fmt.Fprintf(stdout, "observations: SSH=%d BGP=%d SNMPv3=%d\n",
		observed[ident.SSH], observed[ident.BGP], observed[ident.SNMP])
	for _, p := range ident.Protocols {
		sets := parts[strings.ToLower(p.String())]
		v4 := alias.NonSingleton(alias.FilterFamily(sets, true))
		v6 := alias.NonSingleton(alias.FilterFamily(sets, false))
		fmt.Fprintf(stdout, "%-7s alias sets: IPv4 %d (covering %d addrs), IPv6 %d (covering %d addrs)\n",
			p, len(v4), alias.CoveredAddrs(v4), len(v6), alias.CoveredAddrs(v6))
	}
	unionV4, unionV6 := parts["union-v4"], parts["union-v6"]
	fmt.Fprintf(stdout, "union   alias sets: IPv4 %d (covering %d addrs), IPv6 %d (covering %d addrs)\n",
		len(unionV4), alias.CoveredAddrs(unionV4), len(unionV6), alias.CoveredAddrs(unionV6))
	fmt.Fprintf(stdout, "dual-stack sets: %d\n", len(parts["dualstack"]))

	if *dumpSets {
		for _, union := range [][]alias.Set{unionV4, unionV6} {
			for _, set := range union {
				fmt.Fprintf(stdout, "set %s\n", set.Signature())
			}
		}
	}
	return nil
}

// load streams one JSONL file into the session, counting the observations
// of each protocol (duplicates included).
func load(s resolver.Session, observed []int, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	obs, err := obsfile.Read(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, o := range obs {
		s.Observe(o)
		observed[o.ID.Proto]++
	}
	return nil
}
