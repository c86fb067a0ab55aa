package midar

import (
	"net/netip"

	"aliaslimit/internal/alias"
)

// SetOutcome classifies the verdict for one candidate alias set, the unit
// of the paper's SSH-MIDAR validation row.
type SetOutcome int

const (
	// OutcomeUnverifiable: fewer than two usable counters in the set, so
	// the bounds test cannot say anything — the fate of 87% of the paper's
	// sample.
	OutcomeUnverifiable SetOutcome = iota
	// OutcomeConfirmed: the usable addresses form one MBT-consistent group
	// exactly matching the candidate set's usable membership.
	OutcomeConfirmed
	// OutcomeSplit: the technique partitions the candidate set into two or
	// more groups (the paper's disagreement cases).
	OutcomeSplit
)

// String names the outcome.
func (o SetOutcome) String() string {
	switch o {
	case OutcomeUnverifiable:
		return "unverifiable"
	case OutcomeConfirmed:
		return "confirmed"
	case OutcomeSplit:
		return "split"
	default:
		return "unknown"
	}
}

// SetResult is the verdict for one candidate set.
type SetResult struct {
	// Candidate is the set under test.
	Candidate alias.Set
	// Outcome is the verdict.
	Outcome SetOutcome
	// UsableAddrs lists the addresses that passed estimation.
	UsableAddrs []netip.Addr
	// Partition is the technique's own grouping of the usable addresses
	// (set for confirmed and split outcomes). Elimination's groups come in
	// the order of their first usable address; corroboration lists the
	// members a group drops, as singletons, just before the group.
	Partition []alias.Set
}

// VerifySet runs the full pipeline on one candidate set: estimation
// (classify each address), elimination (pairwise MBT over usable addresses),
// and, for MIDAR, corroboration (re-test each resulting group with fresh
// samples).
func (s *Session) VerifySet(candidate alias.Set) SetResult {
	res := SetResult{Candidate: candidate}

	series := s.SampleSet(candidate.Addrs)
	velocities := make(map[netip.Addr]float64)
	for _, a := range candidate.Addrs {
		sr := series[a]
		if Classify(sr, s.cfg.MaxVelocity) != ClassUsable {
			continue
		}
		v, _ := sr.Velocity()
		res.UsableAddrs = append(res.UsableAddrs, a)
		velocities[a] = v
	}
	if len(res.UsableAddrs) < 2 {
		res.Outcome = OutcomeUnverifiable
		return res
	}

	// Elimination: pairwise MBT over the interleaved estimation samples.
	n := len(res.UsableAddrs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ai, aj := res.UsableAddrs[i], res.UsableAddrs[j]
			vmax := velocities[ai]
			if velocities[aj] > vmax {
				vmax = velocities[aj]
			}
			if MBT(series[ai], series[aj], vmax, s.cfg.Margin) {
				parent[find(i)] = find(j)
			}
		}
	}
	// List the groups in the order of their first member, so the partition
	// and the order of corroboration's probes are the same on every run.
	var groups [][]netip.Addr
	slot := make([]int, n) // root → 1 + its group's index in groups
	for i, a := range res.UsableAddrs {
		r := find(i)
		if slot[r] == 0 {
			groups = append(groups, nil)
			slot[r] = len(groups)
		}
		groups[slot[r]-1] = append(groups[slot[r]-1], a)
	}
	if s.corroborate {
		groups = s.corroborateGroups(groups)
	}

	for _, addrs := range groups {
		res.Partition = append(res.Partition, alias.NewSet(addrs...))
	}
	if len(res.Partition) == 1 && res.Partition[0].Size() == n {
		res.Outcome = OutcomeConfirmed
	} else {
		res.Outcome = OutcomeSplit
	}
	return res
}

// corroborateGroups re-samples each multi-address group and demands the MBT
// still holds between every member and the group's first address. Members
// that fail drop out into singleton groups.
func (s *Session) corroborateGroups(groups [][]netip.Addr) [][]netip.Addr {
	var out [][]netip.Addr
	for _, addrs := range groups {
		if len(addrs) < 2 {
			out = append(out, addrs)
			continue
		}
		fresh := s.SampleSet(addrs)
		ref := addrs[0]
		refV, _ := fresh[ref].Velocity()
		kept := []netip.Addr{ref}
		for _, a := range addrs[1:] {
			v, _ := fresh[a].Velocity()
			vmax := refV
			if v > vmax {
				vmax = v
			}
			if MBT(fresh[ref], fresh[a], vmax, s.cfg.Margin) {
				kept = append(kept, a)
			} else {
				out = append(out, []netip.Addr{a})
			}
		}
		out = append(out, kept)
	}
	return out
}

// VerifySets runs VerifySet over a sample of candidate sets and tallies the
// paper's Table 2 quantities.
func (s *Session) VerifySets(candidates []alias.Set) ([]SetResult, Tally) {
	results := make([]SetResult, 0, len(candidates))
	var t Tally
	for _, c := range candidates {
		r := s.VerifySet(c)
		results = append(results, r)
		switch r.Outcome {
		case OutcomeUnverifiable:
			t.Unverifiable++
		case OutcomeConfirmed:
			t.Confirmed++
		case OutcomeSplit:
			t.Split++
		}
	}
	return results, t
}

// Tally aggregates verification outcomes.
type Tally struct {
	// Unverifiable sets had fewer than two usable counters.
	Unverifiable int
	// Confirmed sets matched the technique's partition exactly.
	Confirmed int
	// Split sets were broken apart by the technique.
	Split int
}

// Verifiable returns the number of sets the technique could test at all.
func (t Tally) Verifiable() int { return t.Confirmed + t.Split }
