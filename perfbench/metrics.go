package main

import "strings"

// layerSpec names a layer's span and the item counts reported beside its
// self time.
type layerSpec struct {
	name  string
	items []string
}

// layers is the per-layer catalog, in pipeline order. Each layer prints
// "<name>_s", its self time per run in seconds, and "<name>_<item>" per
// item, averaged over the runs (iterations, set-up rounds or the probe) it
// was measured in.
var layers = []layerSpec{
	{"topo.build", []string{"devices", "addrs"}},
	{"topo.churn", []string{"events"}},
	{"experiments.advance", []string{"obs_ssh", "obs_bgp", "obs_snmpv3"}},
	{"zmaplite.sweep.ssh", []string{"probes", "open"}},
	{"zmaplite.sweep.bgp", []string{"probes", "open"}},
	{"zgrab.grab.ssh", []string{"grabs", "failures"}},
	{"zgrab.grab.bgp", []string{"grabs", "failures"}},
	{"ident.extract.ssh", []string{"ids"}},
	{"ident.extract.bgp", []string{"ids"}},
	{"snmpv3.discover", []string{"probes", "engine_ids"}},
	{"resolver.group.ssh", []string{"sets"}},
	{"resolver.group.bgp", []string{"sets"}},
	{"resolver.group.snmpv3", []string{"sets"}},
	{"resolver.merge.union", []string{"sets"}},
	{"resolver.merge.dualstack", []string{"sets"}},
	{"resolver.observe", []string{"obs"}},
	{"resolver.views", []string{"sets"}},
	{"obslog.replay", []string{"frames", "bytes"}},
	{"midar.verify", []string{"sets"}},
	{"evaluate.score", []string{"sets"}},
	{"scenario.digest", []string{"sets"}},
	{"scenario.epoch_digest", []string{"epochs"}},
	{"experiments.render", []string{"bytes"}},
	{"aliasd.ingest", []string{"lines"}},
	{"obsfile.decode", []string{"lines"}},
	{"aliasd.flush", []string{"calls"}},
	{"aliasd.query.recompute", []string{"calls"}},
	{"aliasd.query.memo", []string{"calls"}},
}

// itemUnit is the unit of an item count.
func itemUnit(item string) string {
	if item == "bytes" {
		return "B"
	}
	return "count"
}

// layerMetrics fills a traced run's metrics from its span summary.
func layerMetrics(m map[string]metric, sum *traceSummary, out *outcome) {
	get := func(layer string) *layerSummary {
		if ls := sum.Layers[layer]; ls != nil {
			return ls
		}
		return &layerSummary{Counts: map[string]float64{}}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, l := range layers {
		ls := get(l.name)
		m[l.name+"_s"] = metric{ls.SelfS, "s"}
		for _, item := range l.items {
			m[l.name+"_"+item] = metric{ls.Counts[item], itemUnit(item)}
		}
	}
	for _, p := range []string{"ssh", "bgp"} {
		g := get("zgrab.grab." + p)
		m["zgrab.grab."+p+"_ok_ratio"] = metric{ratio(g.Counts["grabs"]-g.Counts["failures"], g.Counts["grabs"]), "ratio"}
		x := get("ident.extract." + p)
		m["ident.extract."+p+"_yield"] = metric{ratio(x.Counts["ids"], x.Counts["grabs"]), "ratio"}
	}
	rejected := 0.0
	for name, ls := range sum.Layers {
		if strings.HasPrefix(name, "aliasd.") {
			rejected += ls.Counts["rejected"]
		}
	}
	m["aliasd.rejected"] = metric{rejected, "count"}
	m["obslog.bytes"] = metric{get("obslog.bytes").Counts["bytes"], "B"}
	m["trace.overhead_s"] = metric{out.traced.stat() - out.wall.stat(), "s"}
	m["trace.coverage"] = metric{median(sum.Coverage), "ratio"}
}
