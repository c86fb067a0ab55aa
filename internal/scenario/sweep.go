package scenario

import (
	"fmt"
	"math"
	"strings"
)

// Parameter sweeps: promote a scalar preset knob to an axis and emit the
// per-axis degradation curve — the Figure-style counterpart of the
// single-point scenario scorecards. CI's nightly sweep job runs the loss and
// churn axes; the longitudinal axes (epochs, decay) ride on the same
// machinery but run the multi-epoch pipeline per point.

// SweepAxes lists the sweepable axes. loss and churn sweep a single-snapshot
// knob; epochs and decay sweep the longitudinal layer.
var SweepAxes = []string{"loss", "churn", "epochs", "decay"}

// sweepDefaultEpochs is the multi-epoch depth the decay axis runs at: deep
// enough that the strategies' histories diverge, small enough for a nightly
// job.
const sweepDefaultEpochs = 4

// SweepPoint is one axis value's full scorecard. Single-snapshot axes fill
// Result; longitudinal axes (epochs, decay) fill Longitudinal.
type SweepPoint struct {
	// Value is the axis value — a fraction for loss/churn/decay (0.05 = 5%),
	// a whole number of snapshot rounds for epochs.
	Value float64 `json:"value"`
	// Result is the single-snapshot scorecard at that value.
	Result *Result `json:"result,omitempty"`
	// Longitudinal is the multi-epoch scorecard at that value.
	Longitudinal *LongitudinalResult `json:"longitudinal,omitempty"`
}

// SweepReport is one axis sweep — the SWEEP-<axis>.json artifact.
type SweepReport struct {
	// Axis is the swept knob ("loss": per-wire packet loss; "churn": the
	// snapshot-gap churn fraction; "epochs": the number of snapshot rounds;
	// "decay": the decay-weighted merge strategy's factor).
	Axis string `json:"axis"`
	// Scenario is the base preset every point starts from.
	Scenario string `json:"scenario"`
	// Points holds the curve in ascending axis order.
	Points []*SweepPoint `json:"points"`
}

// RunSweep runs the named preset once per axis value, overriding only the
// swept knob, and returns the degradation curve. Values must be ascending;
// loss/churn/decay take fractions, epochs takes whole snapshot-round counts
// (>= 2). Every point reuses the preset's scales, tuning, and remaining
// faults, so the curve isolates exactly one axis. The epochs and decay axes
// run the longitudinal pipeline per point and fill SweepPoint.Longitudinal.
func RunSweep(axis, name string, values []float64, opts Options) (*SweepReport, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown preset %q (have: %s)",
			name, strings.Join(Names(), ", "))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("scenario: sweep needs at least one value")
	}
	rep := &SweepReport{Axis: axis, Scenario: p.Name}
	for i, v := range values {
		if i > 0 && !(v > values[i-1]) { // NaN too
			return nil, fmt.Errorf("scenario: sweep values must be ascending, got %v after %v", v, values[i-1])
		}
		pt, err := runSweepPoint(axis, p, v, opts)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// runSweepPoint measures one axis value.
func runSweepPoint(axis string, p Preset, v float64, opts Options) (*SweepPoint, error) {
	fail := func(err error) (*SweepPoint, error) {
		return nil, fmt.Errorf("scenario sweep %s=%v: %w", axis, v, err)
	}
	fraction := func() error {
		if !(v >= 0 && v < 1) { // NaN too
			return fmt.Errorf("scenario: sweep value %v out of [0, 1)", v)
		}
		return nil
	}
	q := p
	switch axis {
	case "loss":
		if err := fraction(); err != nil {
			return nil, err
		}
		q.Faults.LossRate = v
	case "churn":
		if err := fraction(); err != nil {
			return nil, err
		}
		q.Churn = v
		if v == 0 {
			// Preset.Churn uses 0 as "experiments default (2%)"; a swept
			// zero means literally no churn, which negative expresses.
			q.Churn = -1
		}
	case "epochs":
		if v != math.Trunc(v) || v < 2 {
			return nil, fmt.Errorf("scenario: epochs sweep values must be whole numbers >= 2, got %v", v)
		}
		res, err := runLongitudinalPreset(q, LongitudinalOptions{Options: opts, Epochs: int(v)})
		if err != nil {
			return fail(err)
		}
		return &SweepPoint{Value: v, Longitudinal: res}, nil
	case "decay":
		if !(v > 0 && v < 1) { // NaN too
			return nil, fmt.Errorf("scenario: decay sweep values must be in (0, 1), got %v", v)
		}
		res, err := runLongitudinalPreset(q, LongitudinalOptions{
			Options: opts, Epochs: sweepDefaultEpochs, Decay: v,
		})
		if err != nil {
			return fail(err)
		}
		return &SweepPoint{Value: v, Longitudinal: res}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown sweep axis %q (have: %s)",
			axis, strings.Join(SweepAxes, ", "))
	}
	res, err := runPreset(q, opts)
	if err != nil {
		return fail(err)
	}
	return &SweepPoint{Value: v, Result: res}, nil
}

// RenderText prints the sweep as a degradation-curve table.
func (r *SweepReport) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep %s on %s (%d points)\n", r.Axis, r.Scenario, len(r.Points))
	if len(r.Points) > 0 && r.Points[0].Longitudinal != nil {
		// Longitudinal axes: the merge-strategy comparison is the curve.
		fmt.Fprintf(&sb, "  %7s %7s %9s %9s %9s %9s\n",
			r.Axis, "epochs", "naive-f1", "decay-f1", "incr-f1", "survival")
		for _, pt := range r.Points {
			l := pt.Longitudinal
			f1 := map[string]float64{}
			for _, m := range l.Merges {
				f1[m.Strategy] = m.F1
			}
			last := 0.0
			if n := len(l.Survival); n > 0 {
				last = l.Survival[n-1].Rate
			}
			fmt.Fprintf(&sb, "  %7.4g %7d %9.4f %9.4f %9.4f %9.3f\n",
				pt.Value, len(l.Epochs), f1["naive-union"], f1["decay-weighted"],
				f1["incremental"], last)
		}
		return sb.String()
	}
	fmt.Fprintf(&sb, "  %7s %9s %9s %9s %9s %9s %9s\n",
		r.Axis, "ssh-prec", "ssh-cov", "bgp-cov", "snmp-cov", "union-v4", "dual")
	for _, pt := range r.Points {
		cov := map[string]float64{}
		prec := map[string]float64{}
		for _, p := range pt.Result.Protocols {
			cov[p.Protocol] = p.Coverage
			prec[p.Protocol] = p.Precision
		}
		fmt.Fprintf(&sb, "  %6.1f%% %9.4f %9.4f %9.4f %9.4f %9d %9d\n",
			pt.Value*100, prec["SSH"], cov["SSH"], cov["BGP"], cov["SNMPv3"],
			pt.Result.UnionSetsV4, pt.Result.DualStackSets)
	}
	return sb.String()
}
