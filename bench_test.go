package aliaslimit

// This file is the benchmark harness required by the reproduction: one
// benchmark per table and figure of the paper's evaluation, plus ablation
// benchmarks for the design choices DESIGN.md calls out. Each benchmark
// regenerates its artifact from a fully measured environment; the expensive
// world construction and scanning happen once and are excluded from timing.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The custom metrics (sets, addrs, agreement…) carry the experiment's
// headline numbers into the benchmark output, so a bench run doubles as a
// results regeneration.

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/speedtrap"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/topo"
	"aliaslimit/internal/zmaplite"
)

// benchScale sizes the benchmark world: large enough for stable shapes,
// small enough that the full bench suite runs in seconds.
const benchScale = 0.4

var (
	benchOnce sync.Once
	benchEnvV *experiments.Env
	benchErr  error
)

// benchEnv lazily builds the shared measured environment.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := topo.Default()
		cfg.Scale = benchScale
		cfg.Seed = 1
		benchEnvV, benchErr = experiments.BuildEnv(experiments.Options{
			Topo: cfg, Scan: experiments.ScanOptions{Workers: 128},
		})
	})
	if benchErr != nil {
		b.Fatalf("building benchmark environment: %v", benchErr)
	}
	return benchEnvV
}

// --- one benchmark per table ---

func BenchmarkTable1(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(env.Table1().Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable2(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(env.Table2(experiments.Table2Config{MIDARSampleSize: 20}).Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable3(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table3()
	}
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

func BenchmarkTable4(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table4()
	}
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

func BenchmarkTable5(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Table5()
	}
}

func BenchmarkTable6(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Table6()
	}
}

// --- one benchmark per figure ---

func BenchmarkFigure3(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var series int
	for i := 0; i < b.N; i++ {
		series = len(env.Figure3().Series)
	}
	b.ReportMetric(float64(series), "series")
}

func BenchmarkFigure4(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Figure4()
	}
}

func BenchmarkFigure5(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Figure5()
	}
}

func BenchmarkFigure6(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Figure6()
	}
}

// --- pipeline stage benchmarks ---

// BenchmarkCollectActive compares the sequential collection baseline
// (Parallelism=1: one protocol sweep at a time) against the fully pipelined
// collector (all three protocol sweeps concurrent, SYN results streaming into
// the service-scan pools), both at the default scan width (4 × GOMAXPROCS).
// pipelined-256 keeps the width that was the default before, so one run
// shows what the narrower pools save. All three produce byte-identical
// Datasets (TestCollectActiveDeterministic asserts this under -race). It
// reports bytes and allocations per collection.
func BenchmarkCollectActive(b *testing.B) {
	cfg := topo.Default()
	cfg.Scale = 0.25
	cfg.Seed = 7
	w, err := topo.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts experiments.ScanOptions
	}{
		{"sequential", experiments.ScanOptions{Parallelism: 1}},
		{"pipelined", experiments.ScanOptions{}},
		{"pipelined-256", experiments.ScanOptions{Workers: 256}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var obs int
			for i := 0; i < b.N; i++ {
				ds, err := experiments.CollectActive(w, bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				obs = len(ds.Obs[ident.SSH]) + len(ds.Obs[ident.BGP]) + len(ds.Obs[ident.SNMP])
			}
			b.ReportMetric(float64(obs), "observations")
		})
	}
}

// BenchmarkTopoBuild compares sequential world generation (BuildWorkers=1)
// against the sharded plan/build/commit pipeline (BuildWorkers=0: all
// cores). Both settings produce byte-identical worlds
// (topo.TestBuildParallelDeterministic asserts this).
func BenchmarkTopoBuild(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := topo.Default()
				cfg.Scale = 0.25
				cfg.Seed = 7
				cfg.BuildWorkers = bc.workers
				w, err := topo.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(w.Fabric.NumDevices()), "devices")
			}
		})
	}
}

// BenchmarkRunLongitudinal measures the full multi-epoch pipeline at small
// scale: three snapshot→churn→scan rounds over one persistent world plus the
// longitudinal scoring layer (per-epoch ground-truth scores, persistence,
// survival, merge strategies). This is the bench-regression gate's coverage
// of the EnvSeries path.
func BenchmarkRunLongitudinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunLongitudinal("baseline", LongitudinalOptions{
			ScenarioOptions: ScenarioOptions{Common: Common{Scale: 0.05, Workers: 128}},
			Epochs:          3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BaselineSets), "tracked_sets")
	}
}

// BenchmarkRenderAll measures regenerating every table and figure from the
// shared measured environment — the memoized analysis layer makes repeated
// full renders near-free, and generation is concurrent.
func BenchmarkRenderAll(b *testing.B) {
	env := benchEnv(b)
	env.RenderAll() // populate the views once; steady-state is what a service would see
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(env.RenderAll())
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkScanSSH measures the full two-phase SSH measurement (SYN sweep +
// application-layer handshakes) over the IPv4 universe.
func BenchmarkScanSSH(b *testing.B) {
	env := benchEnv(b)
	v := env.World.Fabric.Vantage(topo.VantageActive)
	targets := env.World.V4Universe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep, err := zmaplite.Scan(v, zmaplite.Config{Targets: targets, Port: 22, Seed: uint64(i), Workers: 128})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(sweep.Open)), "open")
	}
	b.ReportMetric(float64(len(targets)), "targets")
}

// BenchmarkSSHHandshake measures a single full curve25519/ed25519 exchange,
// scanner and simulated server together, with what it allocates.
func BenchmarkSSHHandshake(b *testing.B) {
	b.ReportAllocs()
	_, priv, err := sshwire.GenerateEd25519(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := sshwire.Profiles[0]
	clk := netsim.NewSimClock(topo.Origin)
	f := netsim.New(clk)
	d, err := netsim.NewDevice(netsim.DeviceConfig{ID: "bench", Addrs: env0Addrs()}, clk.Now())
	if err != nil {
		b.Fatal(err)
	}
	d.SetService(22, sshwire.NewServer(sshwire.ServerConfig{
		Banner: p.Banner, Algorithms: p.Algorithms, HostKey: priv,
	}))
	if err := f.AddDevice(d); err != nil {
		b.Fatal(err)
	}
	v := f.Vantage("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := v.DialContext(benchCtx(), "tcp", "192.0.2.1:22")
		if err != nil {
			b.Fatal(err)
		}
		res, err := sshwire.Scan(conn, sshwire.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.HasIdentifierMaterial() {
			b.Fatal("handshake lost identifier material")
		}
	}
}

// env0Addrs is the fixed address of the single-handshake benchmark device.
func env0Addrs() []netip.Addr {
	return []netip.Addr{netip.MustParseAddr("192.0.2.1")}
}

// benchCtx is a background context helper for dials inside benchmarks.
func benchCtx() context.Context { return context.Background() }

// BenchmarkGrouping measures the identifier-grouping core over the union
// dataset.
func BenchmarkGrouping(b *testing.B) {
	env := benchEnv(b)
	obs := env.Both.Obs[ident.SSH]
	b.ResetTimer()
	var sets int
	for i := 0; i < b.N; i++ {
		sets = len(alias.Group(obs))
	}
	b.ReportMetric(float64(sets), "sets")
	b.ReportMetric(float64(len(obs)), "obs")
}

// BenchmarkMerge measures the cross-protocol union-find consolidation.
func BenchmarkMerge(b *testing.B) {
	env := benchEnv(b)
	ssh := alias.NonSingleton(alias.FilterFamily(env.Both.Sets(ident.SSH), true))
	bgpS := alias.NonSingleton(alias.FilterFamily(env.Both.Sets(ident.BGP), true))
	snmp := alias.NonSingleton(alias.FilterFamily(env.Active.Sets(ident.SNMP), true))
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(alias.Merge(ssh, bgpS, snmp))
	}
	b.ReportMetric(float64(n), "unionSets")
}

// --- ablation benchmarks (design choices from DESIGN.md §5) ---

// BenchmarkAblationIdentifierSSH compares the paper's combined identifier
// (capabilities + key) against the key-only ablation: the key-only variant
// merges fleet-key devices it should not.
func BenchmarkAblationIdentifierSSH(b *testing.B) {
	env := benchEnv(b)
	obs := env.Active.Obs[ident.SSH]
	full := alias.NonSingleton(alias.FilterFamily(alias.Group(obs), true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alias.Group(obs)
	}
	b.ReportMetric(float64(len(full)), "fullIdentifierSets")
}

// BenchmarkAblationUnionStrategy compares per-protocol counting against the
// union-find merge: the merge discovers strictly more structure whenever a
// device answers several protocols.
func BenchmarkAblationUnionStrategy(b *testing.B) {
	env := benchEnv(b)
	ssh := alias.NonSingleton(alias.FilterFamily(env.Both.Sets(ident.SSH), true))
	bgpS := alias.NonSingleton(alias.FilterFamily(env.Both.Sets(ident.BGP), true))
	snmp := alias.NonSingleton(alias.FilterFamily(env.Active.Sets(ident.SNMP), true))
	perProtocol := len(ssh) + len(bgpS) + len(snmp)
	var merged int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged = len(alias.Merge(ssh, bgpS, snmp))
	}
	b.ReportMetric(float64(perProtocol), "naiveSum")
	b.ReportMetric(float64(merged), "mergedSets")
}

// BenchmarkAblationScanOrder quantifies why ZMap randomises: the maximum
// probe burst any single /24 sees under the permuted order versus a linear
// sweep. Linear sweeps hammer each prefix with its full population at once —
// exactly what trips rate limiters and IDS filters.
func BenchmarkAblationScanOrder(b *testing.B) {
	env := benchEnv(b)
	targets := env.World.V4Universe()
	maxBurst := func(order []int) int {
		burst, maxB := 0, 0
		var prev [3]byte
		for _, i := range order {
			a := targets[i].As4()
			cur := [3]byte{a[0], a[1], a[2]}
			if cur == prev {
				burst++
			} else {
				burst = 1
				prev = cur
			}
			if burst > maxB {
				maxB = burst
			}
		}
		return maxB
	}
	linear := make([]int, len(targets))
	for i := range linear {
		linear[i] = i
	}
	var permutedBurst int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm, err := zmaplite.NewPermutation(uint64(len(targets)), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		order := make([]int, 0, len(targets))
		for {
			v, ok := perm.Next()
			if !ok {
				break
			}
			order = append(order, int(v))
		}
		permutedBurst = maxBurst(order)
	}
	b.ReportMetric(float64(maxBurst(linear)), "linearMaxBurstPer24")
	b.ReportMetric(float64(permutedBurst), "permutedMaxBurstPer24")
}

// BenchmarkAblationMIDARBudget sweeps the MIDAR probing budget: more rounds
// cost linearly more (simulated) probes but barely move the verifiable
// fraction — the bottleneck is counter behaviour, not sampling.
func BenchmarkAblationMIDARBudget(b *testing.B) {
	env := benchEnv(b)
	sets := alias.NonSingleton(alias.FilterFamily(env.Active.Sets(ident.SSH), true))
	var sample []alias.Set
	for _, s := range sets {
		if s.Size() <= 10 && len(sample) < 20 {
			sample = append(sample, s)
		}
	}
	for _, rounds := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			var verifiable int
			for i := 0; i < b.N; i++ {
				session := midar.NewSession(
					env.World.Fabric.Vantage(topo.VantageMIDAR), env.World.Clock,
					midar.Config{Rounds: rounds})
				_, tally := session.VerifySets(sample)
				verifiable = tally.Verifiable()
			}
			b.ReportMetric(float64(verifiable), "verifiableSets")
		})
	}
}

// --- extension benchmarks (the paper's §5 future-work agenda) ---

// BenchmarkExtensionMultiVantage measures the multi-vantage coverage sweep
// and reports the cumulative coverage curve's endpoints.
func BenchmarkExtensionMultiVantage(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var rows []experiments.VantageCoverage
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MultiVantage(env.World, 4, experiments.ScanOptions{Workers: 128})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].IPs), "ipsOneVantage")
	b.ReportMetric(float64(rows[len(rows)-1].IPs), "ipsFourVantages")
}

// BenchmarkExtensionStability measures the two-scan identifier-stability
// experiment on a private world (it mutates clock and bindings).
func BenchmarkExtensionStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := topo.Default()
		cfg.Scale = 0.15
		cfg.Seed = uint64(i) + 100
		w, err := topo.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := experiments.Stability(w, 21*24*3600*1e9, 0.05, experiments.ScanOptions{Workers: 128})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.PersistenceRate(), "persistencePct")
	}
}

// BenchmarkBaselineIffinder measures the historical common-source-address
// technique against the whole IPv4 universe and reports its (poor) yield.
func BenchmarkBaselineIffinder(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var rows []experiments.BaselineComparison
	for i := 0; i < b.N; i++ {
		rows = env.CompareBaselines()
	}
	for _, r := range rows {
		if r.Technique == "iffinder (common source addr)" {
			b.ReportMetric(float64(r.Sets), "iffinderSets")
		}
		if r.Technique == "SSH identifier" {
			b.ReportMetric(float64(r.Sets), "sshSets")
		}
	}
}

// BenchmarkExtensionSpeedtrap measures the IPv6 fragment-ID validation of
// sampled SSH sets and reports how few are verifiable — the paper's IPv6
// coverage argument.
func BenchmarkExtensionSpeedtrap(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var res experiments.SpeedtrapValidation
	for i := 0; i < b.N; i++ {
		res = env.ValidateWithSpeedtrap(30, speedtrap.Config{})
	}
	b.ReportMetric(float64(res.Sampled), "sampledSets")
	b.ReportMetric(float64(res.Confirmed), "confirmed")
	b.ReportMetric(float64(res.Unverifiable), "unverifiable")
}

// BenchmarkExtensionPTR measures the DNS-based dual-stack baseline against
// the identifier results.
func BenchmarkExtensionPTR(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.PTRComparison
	for i := 0; i < b.N; i++ {
		r = env.ComparePTRDualStack()
	}
	b.ReportMetric(float64(r.PTRSets), "ptrSets")
	b.ReportMetric(float64(r.IdentifierSets), "identifierSets")
	b.ReportMetric(float64(r.Contradicted), "contradicted")
}

// BenchmarkMIDARResolveStandalone measures the RadarGun-style flat resolve
// over a mixed population, reporting how velocity bucketing bounds the
// pairwise tests.
func BenchmarkMIDARResolveStandalone(b *testing.B) {
	env := benchEnv(b)
	// Target the multi-interface router population: a flat resolve over
	// single-address servers would trivially find nothing.
	var targets []netip.Addr
	for _, addrs := range env.World.Truth.SNMPAddrs {
		for _, a := range addrs {
			if a.Is4() {
				targets = append(targets, a)
			}
		}
		if len(targets) >= 600 {
			break
		}
	}
	session := midar.NewSession(env.World.Fabric.Vantage(topo.VantageMIDAR), env.World.Clock, midar.Config{})
	b.ResetTimer()
	var res *midar.ResolveResult
	for i := 0; i < b.N; i++ {
		res = session.Resolve(targets)
	}
	b.ReportMetric(float64(len(res.Sets)), "sets")
	b.ReportMetric(float64(res.PairsTested), "pairsTested")
}

// BenchmarkExtensionAccuracy measures the ground-truth scoring pass and
// reports the SSH inference's pairwise precision/recall — an evaluation only
// a simulated substrate permits.
func BenchmarkExtensionAccuracy(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var rows []experiments.AccuracyReport
	for i := 0; i < b.N; i++ {
		rows = env.EvaluateAccuracy()
	}
	for _, r := range rows {
		if r.Protocol == "SSH" {
			b.ReportMetric(r.Precision, "sshPrecision")
			b.ReportMetric(r.Recall, "sshRecall")
		}
	}
}
