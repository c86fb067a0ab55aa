package experiments

import (
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/topo"
)

// refAddrs is the reference address universe: the distinct addresses of
// obs, optionally of one family, sorted.
func refAddrs(obs []alias.Observation, v4 *bool) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, o := range obs {
		if (v4 == nil || o.Addr.Is4() == *v4) && !seen[o.Addr] {
			seen[o.Addr] = true
			out = append(out, o.Addr)
		}
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// TestSealedViewsMatchDirect asserts the memoization contract: every cached
// view of a built dataset is identical to the direct recomputation from the
// raw observations, and stays identical on repeated access.
func TestSealedViewsMatchDirect(t *testing.T) {
	e := testEnv(t)
	for _, ds := range []*Dataset{e.Active, e.Censys, e.Both} {
		var all []alias.Observation
		for _, p := range ident.Protocols {
			all = append(all, ds.Obs[p]...)
			direct := alias.Group(ds.Obs[p])
			if !reflect.DeepEqual(ds.Sets(p), direct) {
				t.Errorf("%s %s: cached Sets != direct Group", ds.Name, p)
			}
			if !reflect.DeepEqual(ds.NonSingletonSets(p), alias.NonSingleton(direct)) {
				t.Errorf("%s %s: cached NonSingletonSets diverges", ds.Name, p)
			}
			for _, v4 := range []bool{true, false} {
				want := alias.NonSingleton(alias.FilterFamily(direct, v4))
				if !reflect.DeepEqual(ds.NonSingletonFamilySets(p, v4), want) {
					t.Errorf("%s %s v4=%v: cached NonSingletonFamilySets diverges", ds.Name, p, v4)
				}
			}
			for _, sel := range []*bool{nil, V4, V6} {
				if got, want := ds.Addrs(p, sel), refAddrs(ds.Obs[p], sel); !slices.Equal(got, want) {
					t.Errorf("%s %s: cached Addrs diverges (%d addresses, want %d)", ds.Name, p, len(got), len(want))
				}
			}
		}
		for _, sel := range []*bool{nil, V4, V6} {
			if got, want := ds.AllAddrs(sel), refAddrs(all, sel); !slices.Equal(got, want) {
				t.Errorf("%s: cached AllAddrs diverges (%d addresses, want %d)", ds.Name, len(got), len(want))
			}
		}
		for _, v4 := range []bool{true, false} {
			direct := alias.NonSingleton(alias.Merge(
				alias.NonSingleton(alias.FilterFamily(alias.Group(ds.Obs[ident.SSH]), v4)),
				alias.NonSingleton(alias.FilterFamily(alias.Group(ds.Obs[ident.BGP]), v4)),
				alias.NonSingleton(alias.FilterFamily(alias.Group(ds.Obs[ident.SNMP]), v4)),
			))
			if !reflect.DeepEqual(ds.MergedFamilyNonSingleton(v4), direct) {
				t.Errorf("%s v4=%v: cached MergedFamilyNonSingleton != direct Merge", ds.Name, v4)
			}
		}
		// Second read returns the same view (memoized, not recomputed).
		a := ds.Sets(ident.SSH)
		b := ds.Sets(ident.SSH)
		if len(a) > 0 && &a[0] != &b[0] {
			t.Errorf("%s: repeated Sets() returned a different slice", ds.Name)
		}
	}

	for _, v4 := range []bool{true, false} {
		direct := alias.NonSingleton(alias.Merge(
			alias.NonSingleton(alias.FilterFamily(alias.Group(e.Both.Obs[ident.SSH]), v4)),
			alias.NonSingleton(alias.FilterFamily(alias.Group(e.Both.Obs[ident.BGP]), v4)),
			alias.NonSingleton(alias.FilterFamily(alias.Group(e.Active.Obs[ident.SNMP]), v4)),
		))
		if !reflect.DeepEqual(e.UnionFamilyNonSingleton(v4), direct) {
			t.Errorf("v4=%v: cached UnionFamilyNonSingleton != direct", v4)
		}
	}
	directDual := alias.DualStack(alias.Merge(
		alias.Group(e.Both.Obs[ident.SSH]),
		alias.Group(e.Both.Obs[ident.BGP]),
		alias.Group(e.Both.Obs[ident.SNMP]),
	))
	if !reflect.DeepEqual(e.DualStackSets(), directDual) {
		t.Error("cached DualStackSets != direct recomputation")
	}
}

// buildTwinEnvs constructs two identical environments from one seed.
func buildTwinEnvs(t *testing.T, seed uint64) (*Env, *Env) {
	t.Helper()
	mk := func() *Env {
		cfg := topo.Default()
		cfg.Scale = 0.05
		cfg.Seed = seed
		e, err := BuildEnv(Options{Topo: cfg, Scan: ScanOptions{Workers: 64}})
		if err != nil {
			t.Fatalf("BuildEnv(seed=%d): %v", seed, err)
		}
		return e
	}
	return mk(), mk()
}

// TestRenderAllMatchesSequential asserts that the concurrent artifact
// generator produces byte-identical output to rendering each artifact
// sequentially in paper order on an identical twin environment, at two
// seeds.
func TestRenderAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four worlds")
	}
	for _, seed := range []uint64{5, 19} {
		par, seq := buildTwinEnvs(t, seed)
		got := par.RenderAll()
		var sb strings.Builder
		for _, out := range []string{
			seq.Table1().Render(), seq.Table2(Table2Config{}).Render(),
			seq.Table3().Render(), seq.Table4().Render(),
			seq.Table5().Render(), seq.Table6().Render(),
			seq.Figure3().Render(), seq.Figure4().Render(),
			seq.Figure5().Render(), seq.Figure6().Render(),
		} {
			sb.WriteString(out)
			sb.WriteByte('\n')
		}
		if got != sb.String() {
			t.Errorf("seed %d: concurrent RenderAll differs from sequential render", seed)
		}
		// Re-rendering on the same env reuses the memoized views and stays
		// byte-identical.
		if again := par.RenderAll(); again != got {
			t.Errorf("seed %d: second RenderAll differs from first", seed)
		}
	}
}

// TestBuildWorkersDeterministic asserts that sharded world construction
// yields byte-identical measurements: two worlds built with different
// BuildWorkers settings produce deeply equal datasets under full collection,
// at two seeds.
func TestBuildWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and scans four worlds")
	}
	for _, seed := range []uint64{3, 9} {
		collect := func(workers int) *Dataset {
			cfg := topo.Default()
			cfg.Scale = 0.05
			cfg.Seed = seed
			cfg.BuildWorkers = workers
			w, err := topo.Build(cfg)
			if err != nil {
				t.Fatalf("Build(seed=%d, workers=%d): %v", seed, workers, err)
			}
			ds, err := CollectActive(w, ScanOptions{Workers: 64, Seed: seed})
			if err != nil {
				t.Fatalf("CollectActive(seed=%d, workers=%d): %v", seed, workers, err)
			}
			return ds
		}
		seqDS := collect(1)
		parDS := collect(8)
		for _, p := range ident.Protocols {
			if !reflect.DeepEqual(seqDS.Obs[p], parDS.Obs[p]) {
				t.Errorf("seed %d: %s observations differ between BuildWorkers=1 and =8 (%d vs %d)",
					seed, p, len(seqDS.Obs[p]), len(parDS.Obs[p]))
			}
		}
	}
}
