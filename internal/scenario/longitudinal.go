package scenario

import (
	"fmt"
	"maps"
	"net/netip"
	"sort"
	"strings"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/evaluate"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// Longitudinal runs: the time axis of the scenario engine. Where Run scores
// one snapshot of one world, RunLongitudinal drives N successive
// snapshot→churn→scan rounds over one persistent world
// (experiments.EnvSeries), scores every epoch against the ground truth as it
// stood at that epoch's scan time, and adds the metrics only a longitudinal
// view can produce: identifier-persistence rates across epoch transitions,
// alias-set survival curves, and a head-to-head of longitudinal merge
// strategies (naive cumulative union vs decay-weighted identifier history)
// against the final epoch's ground truth.

// LongitudinalOptions parameterise one multi-epoch scenario run.
type LongitudinalOptions struct {
	// Options carries the single-run knobs (seed, scale, quick, log
	// directory, stream collection), applied identically to every epoch.
	Options
	// Epochs is the number of snapshot rounds; 0 picks 5. Must be >= 2.
	Epochs int
	// Decay is the per-epoch-of-age weight factor for the decay-weighted
	// merge strategy, in (0, 1); 0 picks 0.5.
	Decay float64
}

// EpochScore is one epoch's scorecard plus the churn that preceded it.
type EpochScore struct {
	// Epoch is the zero-based epoch index.
	Epoch int `json:"epoch"`
	// Result is the standard single-snapshot scorecard, judged against the
	// ground truth snapshotted at this epoch's scan time.
	Result
	// Renumbered / Rebooted / WiresDown / WiresUp count the epoch-boundary
	// churn applied before this epoch's snapshot (all zero for epoch 0).
	Renumbered int `json:"renumbered"`
	Rebooted   int `json:"rebooted"`
	WiresDown  int `json:"wires_down"`
	WiresUp    int `json:"wires_up"`
	// IntraChurned counts the within-epoch churn between the Censys snapshot
	// and the active scan.
	IntraChurned int `json:"intra_churned"`
}

// ProtocolPersistence is one protocol's identifier stability over time: for
// each epoch transition e→e+1, the share of addresses observed in both
// epochs that presented the same identifier in both.
type ProtocolPersistence struct {
	// Protocol names the technique (SSH, BGP, SNMPv3).
	Protocol string `json:"protocol"`
	// Rates holds one persistence rate per transition (len = epochs-1). A
	// transition with no co-observed address reports the vacuous 1.0.
	Rates []float64 `json:"rates"`
	// Mean is the unweighted mean over the transitions that co-observed at
	// least one address (0 when none did).
	Mean float64 `json:"mean"`
}

// SurvivalPoint is one point of the alias-set survival curve: how many of
// epoch 0's union alias sets are still intact at this epoch — at least two of
// the set's addresses observed, all in one inferred set.
type SurvivalPoint struct {
	// Epoch is the zero-based epoch index (epoch 0 is 1.0 by construction).
	Epoch int `json:"epoch"`
	// Alive counts surviving epoch-0 sets; Rate is Alive over the baseline.
	Alive int     `json:"alive"`
	Rate  float64 `json:"rate"`
}

// MergeScore is one longitudinal merge strategy's accuracy against the final
// epoch's ground truth.
type MergeScore struct {
	// Strategy is "naive-union" (merge every epoch's alias sets, stale
	// identifiers and all), "decay-weighted" (per-address identifier
	// history with recency-decayed weights; stale claims lose to fresh
	// observations), or "incremental" (an online last-write-wins map per
	// protocol — O(addresses) state, single pass, no history retained;
	// coincides with decay-weighted outcomes at decay factors where the
	// freshest observation always outweighs the accumulated past, and
	// diverges as decay approaches 1).
	Strategy string `json:"strategy"`
	// Precision / Recall / F1 are pairwise scores of the merged cross-
	// protocol partition against the final epoch's ground truth.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	// Sets counts the non-singleton merged sets (both families).
	Sets int `json:"sets"`
	// TruePairs / FalsePairs / MissedPairs are the raw pairwise counts.
	TruePairs   int `json:"true_pairs"`
	FalsePairs  int `json:"false_pairs"`
	MissedPairs int `json:"missed_pairs"`
}

// LongitudinalResult is one preset's full multi-epoch scorecard.
type LongitudinalResult struct {
	// Scenario is the preset name; Summary its catalog line.
	Scenario string `json:"scenario"`
	Summary  string `json:"summary"`
	// Seed / Scale / Quick pin the world exactly as Result does; Decay is
	// the decay-weighted strategy's factor; Backend labels the resolver
	// (always resolver.Name).
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	Quick   bool    `json:"quick"`
	Decay   float64 `json:"decay"`
	Backend string  `json:"backend,omitempty"`
	// Epochs holds the per-epoch scorecards in chronological order.
	Epochs []*EpochScore `json:"epochs"`
	// Persistence holds per-protocol identifier-persistence rates.
	Persistence []ProtocolPersistence `json:"persistence"`
	// BaselineSets counts the epoch-0 union alias sets the survival curve
	// tracks; Survival is the curve itself.
	BaselineSets int              `json:"baseline_sets"`
	Survival     []*SurvivalPoint `json:"survival"`
	// Merges scores the longitudinal merge strategies against the final
	// epoch's ground truth.
	Merges []*MergeScore `json:"merges"`
}

// scoreProtos is the fixed protocol order of the longitudinal metrics.
var scoreProtos = []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP}

// epochView is the per-epoch analysis state the longitudinal metrics read.
type epochView struct {
	// ids maps address → identifier digest per protocol, latest observation
	// within the epoch winning (active scan over Censys snapshot).
	ids [3]map[netip.Addr]string
	// ns is the epoch's cross-protocol union partition per family
	// (0 = v4, 1 = v6); every set in it has two or more addresses.
	ns [2][]alias.Set
}

// RunLongitudinal runs the named preset over opts.Epochs snapshot rounds on
// one persistent world and assembles the longitudinal scorecard. Results are
// deterministic for a fixed (name, options) at any GOMAXPROCS.
func RunLongitudinal(name string, opts LongitudinalOptions) (*LongitudinalResult, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown preset %q (have: %s)",
			name, strings.Join(Names(), ", "))
	}
	return runLongitudinalPreset(p, opts)
}

// runLongitudinalPreset is RunLongitudinal over an already resolved (possibly
// sweep-modified) preset.
func runLongitudinalPreset(p Preset, opts LongitudinalOptions) (*LongitudinalResult, error) {
	r, err := newLongRun(p, opts, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for len(r.out.Epochs) < r.n {
		if err := r.runEpoch(); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// longRun is the in-flight state of a longitudinal run: the per-epoch loop
// (runEpoch) and the cross-epoch tail (finish) are factored out of
// runLongitudinalPreset so the crash-resume path can rebuild the state for
// already-committed epochs from the observation log and then drive the very
// same loop for the remaining live epochs.
type longRun struct {
	p      Preset
	cfg    topo.Config
	quick  bool
	n      int
	decay  float64
	series *experiments.EnvSeries
	log    *obslog.Writer
	logDir string
	out    *LongitudinalResult
	views  []*epochView
	// finalTruth is the ground truth at the last consumed epoch's scan time.
	finalTruth *topo.Truth
	// pending carries scorecards computed inside the epoch-checkpoint hook
	// (so they are durable before the manifest commits) to runEpoch.
	pending map[int]*EpochScore
}

// newLongRun validates options, builds the world series, and — for durable
// runs — attaches the observation log: a fresh one when opts.LogDir names a
// new directory, or resumeLog when the resume path already reopened one.
func newLongRun(p Preset, opts LongitudinalOptions, resumeLog *obslog.Writer) (*longRun, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	name := p.Name
	if p.StreamOnly && !opts.StreamCollect {
		return nil, fmt.Errorf("scenario %s: this world only runs out-of-core; pass -stream-collect", name)
	}
	n := opts.Epochs
	if n == 0 {
		n = 5
	}
	if n < 2 {
		return nil, fmt.Errorf("scenario: longitudinal runs need >= 2 epochs, got %d", n)
	}
	decay := opts.Decay
	if decay == 0 {
		decay = 0.5
	}
	if !(decay > 0 && decay < 1) { // NaN too
		return nil, fmt.Errorf("scenario: decay must be in (0, 1), got %v", opts.Decay)
	}

	cfg, quick := resolveConfig(p, opts.Options)
	eopts := envOptions(p, cfg, opts.Options)
	r := &longRun{
		p:       p,
		cfg:     cfg,
		quick:   quick,
		n:       n,
		decay:   decay,
		logDir:  opts.LogDir,
		pending: make(map[int]*EpochScore),
		out: &LongitudinalResult{
			Scenario: p.Name,
			Summary:  p.Summary,
			Seed:     cfg.Seed,
			Scale:    cfg.Scale,
			Quick:    quick,
			Decay:    decay,
			Backend:  resolver.Name,
		},
	}
	switch {
	case resumeLog != nil:
		r.log = resumeLog
	case opts.LogDir != "":
		lg, err := obslog.Create(opts.LogDir, obslog.RunMeta{
			Scenario: p.Name,
			Seed:     cfg.Seed,
			Scale:    cfg.Scale,
			Quick:    quick,
			Backend:  resolver.Name,
			Epochs:   n,
			Decay:    decay,
		}, obslog.Options{})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		r.log = lg
	}
	if r.log != nil {
		eopts.Log = r.log
		// The checkpoint hook runs between sealing an epoch and committing
		// its manifest entry: the scorecard is scored and persisted here, so
		// an epoch the manifest calls done always has its scorecard on disk.
		eopts.EpochDigest = func(ep *experiments.Epoch) (string, error) {
			es := r.buildEpochScore(ep)
			if err := saveEpochScore(r.logDir, es); err != nil {
				return "", err
			}
			r.pending[ep.Stats.Epoch] = es
			return es.SetsDigest, nil
		}
	}
	series, err := experiments.NewEnvSeries(experiments.SeriesOptions{
		Options:    eopts,
		Epochs:     n,
		EpochChurn: p.epochChurn(),
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	r.series = series
	return r, nil
}

// buildEpochScore scores one completed epoch against its truth snapshot.
func (r *longRun) buildEpochScore(ep *experiments.Epoch) *EpochScore {
	res := score(r.p, r.cfg, r.quick, ep.Env, ep.Truth)
	return &EpochScore{
		Epoch:        ep.Stats.Epoch,
		Result:       *res,
		Renumbered:   ep.Stats.Renumbered,
		Rebooted:     ep.Stats.Rebooted,
		WiresDown:    ep.Stats.WiresDown,
		WiresUp:      ep.Stats.WiresUp,
		IntraChurned: ep.Stats.IntraChurned,
	}
}

// runEpoch advances the series one epoch and appends its scorecard and
// analysis view. For durable runs the scorecard was already computed (and
// persisted) by the checkpoint hook inside Advance.
func (r *longRun) runEpoch() error {
	e := len(r.out.Epochs)
	ep, err := r.series.Advance()
	if err != nil {
		return fmt.Errorf("scenario %s epoch %d: %w", r.p.Name, e, err)
	}
	es := r.pending[e]
	if es == nil {
		es = r.buildEpochScore(ep)
	}
	delete(r.pending, e)
	r.out.Epochs = append(r.out.Epochs, es)
	view, err := newEpochView(ep.Env)
	if err != nil {
		return fmt.Errorf("scenario %s epoch %d: %w", r.p.Name, e, err)
	}
	r.views = append(r.views, view)
	r.finalTruth = ep.Truth
	return nil
}

// finish computes the cross-epoch metrics once every epoch is in.
func (r *longRun) finish() *LongitudinalResult {
	out := r.out
	out.Persistence = persistence(r.views)
	out.BaselineSets, out.Survival = survival(r.views)
	owner := combinedOwner(r.finalTruth)
	out.Merges = []*MergeScore{
		scoreMerge("naive-union", naiveUnion(r.views), owner),
		scoreMerge("decay-weighted", decayWeighted(r.views, r.decay), owner),
		scoreMerge("incremental", incremental(r.views), owner),
	}
	return out
}

// close releases the observation log, if any, and the series' temporary
// stream-collection spill.
func (r *longRun) close() {
	if r.log != nil {
		r.log.Close()
	}
	if r.series != nil {
		r.series.Close()
	}
}

// newEpochView captures the identifier maps and union partitions of one
// sealed epoch environment. It iterates through Dataset.EachObs, so it works
// identically over in-RAM and stream-backed epochs; a stream-backed epoch
// whose log segment fails to read surfaces the error instead of yielding a
// partial view.
func newEpochView(env *experiments.Env) (*epochView, error) {
	v := &epochView{}
	record := func(m map[netip.Addr]string) func(alias.Observation) {
		return func(o alias.Observation) { m[o.Addr] = o.ID.Digest }
	}
	for i, proto := range scoreProtos {
		m := make(map[netip.Addr]string)
		// Chronological overwrite: the Censys snapshot first, the active
		// scan (three simulated weeks later) second, so within an epoch the
		// freshest observation defines an address's identifier. SNMPv3 has a
		// single source, as everywhere else in the analysis.
		if proto != ident.SNMP {
			if err := env.Censys.EachObs(proto, record(m)); err != nil {
				return nil, err
			}
		}
		if err := env.Active.EachObs(proto, record(m)); err != nil {
			return nil, err
		}
		v.ids[i] = m
	}
	for fi, v4 := range []bool{true, false} {
		v.ns[fi] = env.UnionFamilyNonSingleton(v4)
	}
	return v, nil
}

// persistence computes the per-protocol identifier-persistence rates across
// consecutive epochs: of the addresses observed in both epochs, the share
// that kept the same identifier.
func persistence(views []*epochView) []ProtocolPersistence {
	out := make([]ProtocolPersistence, 0, len(scoreProtos))
	for i, proto := range scoreProtos {
		pp := ProtocolPersistence{Protocol: proto.String()}
		sum, evidenced := 0.0, 0
		for e := 0; e+1 < len(views); e++ {
			both, same := 0, 0
			next := views[e+1].ids[i]
			for addr, d := range views[e].ids[i] {
				d2, ok := next[addr]
				if !ok {
					continue
				}
				both++
				if d2 == d {
					same++
				}
			}
			// A transition with no co-observed address carries no evidence;
			// it reports the vacuous 1.0 (matching the Precision convention)
			// but is excluded from the headline Mean rather than inflating it.
			rate := 1.0
			if both > 0 {
				rate = float64(same) / float64(both)
				sum += rate
				evidenced++
			}
			pp.Rates = append(pp.Rates, rate)
		}
		if evidenced > 0 {
			pp.Mean = sum / float64(evidenced)
		}
		out = append(out, pp)
	}
	return out
}

// survival tracks epoch 0's union alias sets through later epochs. A set
// survives at epoch e when at least two of its addresses are still observed
// and every observed one sits in a single epoch-e set.
func survival(views []*epochView) (int, []*SurvivalPoint) {
	baseline := append(append([]alias.Set(nil), views[0].ns[0]...), views[0].ns[1]...)
	out := make([]*SurvivalPoint, 0, len(views))
	for e, v := range views {
		comp := make(map[netip.Addr]int)
		idx := 0
		for _, fam := range v.ns {
			for _, s := range fam {
				for _, a := range s.Addrs {
					comp[a] = idx
				}
				idx++
			}
		}
		alive := 0
		for _, s := range baseline {
			observed, intact, first := 0, true, -1
			for _, a := range s.Addrs {
				c, ok := comp[a]
				if !ok {
					continue
				}
				observed++
				if first == -1 {
					first = c
				} else if c != first {
					intact = false
				}
			}
			if observed >= 2 && intact {
				alive++
			}
		}
		rate := 1.0
		if len(baseline) > 0 {
			rate = float64(alive) / float64(len(baseline))
		}
		out = append(out, &SurvivalPoint{Epoch: e, Alive: alive, Rate: rate})
	}
	return len(baseline), out
}

// combinedOwner flattens the final ground truth of all three protocols into
// one address→device map for scoring merged cross-protocol partitions.
func combinedOwner(t *topo.Truth) map[netip.Addr]string {
	owner := make(map[netip.Addr]string)
	for _, m := range []map[string][]netip.Addr{t.SSHAddrs, t.BGPAddrs, t.SNMPAddrs} {
		for dev, addrs := range m {
			for _, a := range addrs {
				owner[a] = dev
			}
		}
	}
	return owner
}

// naiveUnion is the cumulative strategy: merge every epoch's union alias
// sets, both families, with no notion of staleness. An address renumbered in
// epoch 3 still carries its epoch-0 identifier's claims — the false-merge
// population churn creates.
func naiveUnion(views []*epochView) []alias.Set {
	var merged []alias.Set
	for fi := range [2]int{} {
		inputs := make([][]alias.Set, 0, len(views))
		for _, v := range views {
			inputs = append(inputs, v.ns[fi])
		}
		merged = append(merged, alias.Merge(inputs...)...)
	}
	return merged
}

// digestHist accumulates one digest's decayed weight and freshest epoch.
type digestHist struct {
	weight float64
	last   int
}

// decayWeighted is the history strategy: every (address, identifier)
// observation ages with the decay factor, each address resolves to its
// highest-weight identifier (freshest epoch breaking ties), and the winning
// assignments are regrouped and merged exactly like a single snapshot. Stale
// identifier claims lose to fresh ones, while addresses that went dark keep
// their last-known identifier — retaining coverage without the false merges.
func decayWeighted(views []*epochView, decay float64) []alias.Set {
	last := len(views) - 1
	var winners [3]map[netip.Addr]string
	for i := range scoreProtos {
		hist := make(map[netip.Addr]map[string]*digestHist)
		for e, v := range views {
			w := 1.0
			for k := 0; k < last-e; k++ {
				w *= decay
			}
			for addr, d := range v.ids[i] {
				byDigest := hist[addr]
				if byDigest == nil {
					byDigest = make(map[string]*digestHist)
					hist[addr] = byDigest
				}
				h := byDigest[d]
				if h == nil {
					h = &digestHist{}
					byDigest[d] = h
				}
				h.weight += w
				h.last = e
			}
		}
		winners[i] = make(map[netip.Addr]string, len(hist))
		for addr, byDigest := range hist {
			var best string
			var bestH *digestHist
			for d, h := range byDigest {
				if bestH == nil || h.weight > bestH.weight ||
					(h.weight == bestH.weight && (h.last > bestH.last ||
						(h.last == bestH.last && d < best))) {
					best, bestH = d, h
				}
			}
			winners[i][addr] = best
		}
	}
	return mergeAssignments(winners)
}

// incremental is the online strategy: one last-write-wins map from address
// to identifier per protocol consumes the epochs in chronological order, so
// an address renumbered in a later epoch sheds its stale identifier the
// moment the fresh observation arrives. Unlike decay-weighted it keeps no
// per-epoch history — O(addresses) state, single pass — which is what makes
// it viable as an always-on resolver between measurement rounds rather than a
// batch job over the archive. At decay factors at or below 0.5 the two agree:
// for any finite history the older sightings' geometric weights sum to
// strictly less than the freshest observation's (the scenario tests pin the
// coincidence at 0.5; toward 1 the strategies diverge).
func incremental(views []*epochView) []alias.Set {
	var latest [3]map[netip.Addr]string
	for i := range scoreProtos {
		latest[i] = make(map[netip.Addr]string)
		for _, v := range views {
			maps.Copy(latest[i], v.ids[i])
		}
	}
	return mergeAssignments(latest)
}

// mergeAssignments regroups per-protocol (address → identifier digest)
// assignments into alias sets and merges each family's non-singleton sets
// across protocols, exactly like a single snapshot's union.
func mergeAssignments(assign [3]map[netip.Addr]string) []alias.Set {
	var perProto [3][]alias.Set
	for i, proto := range scoreProtos {
		obs := make([]alias.Observation, 0, len(assign[i]))
		for addr, d := range assign[i] {
			obs = append(obs, alias.Observation{
				Addr: addr,
				ID:   ident.Identifier{Proto: proto, Digest: d},
			})
		}
		perProto[i] = alias.Group(obs)
	}
	var merged []alias.Set
	for _, v4 := range []bool{true, false} {
		var inputs [][]alias.Set
		for _, sets := range perProto {
			inputs = append(inputs, alias.NonSingleton(alias.FilterFamily(sets, v4)))
		}
		merged = append(merged, alias.Merge(inputs...)...)
	}
	return merged
}

// scoreMerge judges one strategy's merged partition against ground truth.
func scoreMerge(strategy string, sets []alias.Set, owner map[netip.Addr]string) *MergeScore {
	m := evaluate.Pairwise(sets, owner)
	return &MergeScore{
		Strategy:    strategy,
		Precision:   m.Precision(),
		Recall:      m.Recall(),
		F1:          m.F1(),
		Sets:        len(sets),
		TruePairs:   m.TruePairs,
		FalsePairs:  m.FalsePairs,
		MissedPairs: m.MissedPairs,
	}
}

// SortLongitudinal orders longitudinal results canonically, mirroring
// SortResults: catalog order, then name, then backend label.
func SortLongitudinal(rs []*LongitudinalResult) {
	sort.SliceStable(rs, func(i, j int) bool {
		ri, rj := rank(rs[i].Scenario), rank(rs[j].Scenario)
		if ri != rj {
			return ri < rj
		}
		if rs[i].Scenario != rs[j].Scenario {
			return rs[i].Scenario < rs[j].Scenario
		}
		return rs[i].Backend < rs[j].Backend
	})
}

// RenderText prints one longitudinal result as a human-readable block.
func (r *LongitudinalResult) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %-12s %d epochs  %s\n", r.Scenario, len(r.Epochs), r.Summary)
	fmt.Fprintf(&sb, "  world: seed=%d scale=%.2f\n", r.Seed, r.Scale)
	fmt.Fprintf(&sb, "  %-5s %8s %9s %9s %9s %9s %7s %6s\n",
		"epoch", "devices", "ssh-prec", "ssh-rec", "ssh-cov", "union-v4", "churn", "reboot")
	for _, e := range r.Epochs {
		var ssh ProtocolScore
		for _, p := range e.Protocols {
			if p.Protocol == "SSH" {
				ssh = p
			}
		}
		fmt.Fprintf(&sb, "  %-5d %8d %9.4f %9.4f %9.4f %9d %7d %6d\n",
			e.Epoch, e.Devices, ssh.Precision, ssh.Recall, ssh.Coverage,
			e.UnionSetsV4, e.Renumbered+e.IntraChurned, e.Rebooted)
	}
	fmt.Fprintf(&sb, "  identifier persistence (mean over %d transitions):", len(r.Epochs)-1)
	for _, pp := range r.Persistence {
		fmt.Fprintf(&sb, "  %s=%.4f", pp.Protocol, pp.Mean)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  alias-set survival (of %d epoch-0 sets):", r.BaselineSets)
	for _, sp := range r.Survival {
		fmt.Fprintf(&sb, " %.3f", sp.Rate)
	}
	sb.WriteByte('\n')
	for _, m := range r.Merges {
		fmt.Fprintf(&sb, "  merge %-14s precision=%.4f recall=%.4f f1=%.4f sets=%d (fp=%d fn=%d)\n",
			m.Strategy, m.Precision, m.Recall, m.F1, m.Sets, m.FalsePairs, m.MissedPairs)
	}
	return sb.String()
}
