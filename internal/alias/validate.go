package alias

// ValidationResult is one row of the paper's Table 2.
type ValidationResult struct {
	// Sample is the number of sets compared (the left technique's sets over
	// the common address population).
	Sample int
	// Agree counts sets with an exact-membership match on the right side.
	Agree int
	// Disagree counts sets without an exact match.
	Disagree int
}

// AgreementRate returns Agree/Sample, or 0 for an empty sample.
func (v ValidationResult) AgreementRate() float64 {
	if v.Sample == 0 {
		return 0
	}
	return float64(v.Agree) / float64(v.Sample)
}

// MatchSets counts exact-membership matches of a's sets among b's sets.
// Callers compare partitions over the same address population (use Restrict
// first); the result is then symmetric up to the differing set counts.
// Matching is keyed on the binary SetKey, not the formatted Signature.
func MatchSets(a, b []Set) ValidationResult {
	byKey := make(map[SetKey]struct{}, len(b))
	for _, s := range b {
		byKey[s.Key()] = struct{}{}
	}
	res := ValidationResult{Sample: len(a)}
	for _, s := range a {
		if _, ok := byKey[s.Key()]; ok {
			res.Agree++
		} else {
			res.Disagree++
		}
	}
	return res
}
