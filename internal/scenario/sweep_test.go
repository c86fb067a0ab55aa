package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRunSweepLossDegradesCoverage(t *testing.T) {
	rep, err := RunSweep("loss", "baseline", []float64{0.0, 0.20}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Axis != "loss" || rep.Scenario != "baseline" || len(rep.Points) != 2 {
		t.Fatalf("unexpected sweep shape: %+v", rep)
	}
	worse := 0
	for _, proto := range []string{"SSH", "BGP", "SNMPv3"} {
		if find(t, rep.Points[1].Result, proto).Coverage < find(t, rep.Points[0].Result, proto).Coverage {
			worse++
		}
	}
	if worse == 0 {
		t.Fatal("20% loss did not reduce coverage for any protocol")
	}
}

func TestRunSweepChurnAxis(t *testing.T) {
	rep, err := RunSweep("churn", "baseline", []float64{0.02, 0.30}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(rep.Points))
	}
	// A swept zero must mean literally no churn, not the 2% default the
	// preset's zero value would select downstream.
	zero, err := RunSweep("churn", "baseline", []float64{0}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(zero.Points[0].Result, rep.Points[0].Result) {
		t.Fatal("churn=0 sweep point measured the same world as churn=2%")
	}
	// Heavier churn between the snapshots leaves more stale identifiers in
	// the union: SSH precision must not improve.
	lo := find(t, rep.Points[0].Result, "SSH")
	hi := find(t, rep.Points[1].Result, "SSH")
	if hi.FalsePairs < lo.FalsePairs {
		t.Fatalf("churn 30%% produced fewer SSH false pairs (%d) than 2%% (%d)",
			hi.FalsePairs, lo.FalsePairs)
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	a, err := RunSweep("loss", "baseline", []float64{0.05}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, 1)
	b, err := RunSweep("loss", "baseline", []float64{0.05}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep differs between the default GOMAXPROCS and 1")
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep("loss", "no-such-world", []float64{0.05}, tinyOpts); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := RunSweep("gravity", "baseline", []float64{0.05}, tinyOpts); err == nil {
		t.Fatal("unknown axis accepted")
	}
	if _, err := RunSweep("loss", "baseline", nil, tinyOpts); err == nil {
		t.Fatal("empty value list accepted")
	}
	if _, err := RunSweep("loss", "baseline", []float64{0.2, 0.1}, tinyOpts); err == nil {
		t.Fatal("descending values accepted")
	}
	if _, err := RunSweep("loss", "baseline", []float64{1.5}, tinyOpts); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	// NaN compares false with everything, so the range and ascending
	// checks must be written to refuse it.
	for _, values := range [][]float64{{math.NaN()}, {0.05, math.NaN()}} {
		if _, err := RunSweep("loss", "baseline", values, tinyOpts); err == nil {
			t.Fatalf("loss sweep over %v accepted", values)
		}
	}
	if _, err := RunSweep("decay", "baseline", []float64{math.NaN()}, tinyOpts); err == nil {
		t.Fatal("NaN decay sweep value accepted")
	}
	if _, err := RunSweep("epochs", "baseline", []float64{2.5}, tinyOpts); err == nil {
		t.Fatal("fractional epochs value accepted")
	}
	if _, err := RunSweep("epochs", "baseline", []float64{1}, tinyOpts); err == nil {
		t.Fatal("single-epoch sweep value accepted")
	}
	if _, err := RunSweep("decay", "baseline", []float64{0}, tinyOpts); err == nil {
		t.Fatal("decay 0 accepted")
	}
}

// TestRunSweepEpochsAxis sweeps the longitudinal depth: every point carries
// a full multi-epoch scorecard with the matching round count.
func TestRunSweepEpochsAxis(t *testing.T) {
	rep, err := RunSweep("epochs", "churn-storm", []float64{2, 3}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(rep.Points))
	}
	for i, want := range []int{2, 3} {
		pt := rep.Points[i]
		if pt.Result != nil || pt.Longitudinal == nil {
			t.Fatalf("epochs point %d is not longitudinal: %+v", i, pt)
		}
		if got := len(pt.Longitudinal.Epochs); got != want {
			t.Fatalf("point %d ran %d epochs, want %d", i, got, want)
		}
		if len(pt.Longitudinal.Merges) != 3 {
			t.Fatalf("point %d has %d merge strategies, want 3", i, len(pt.Longitudinal.Merges))
		}
	}
	if !strings.Contains(rep.RenderText(), "incr-f1") {
		t.Fatalf("longitudinal sweep table missing merge columns:\n%s", rep.RenderText())
	}
}

// TestRunSweepDecayAxis sweeps the decay factor and checks each point pins
// its factor in the scorecard.
func TestRunSweepDecayAxis(t *testing.T) {
	rep, err := RunSweep("decay", "churn-storm", []float64{0.3, 0.9}, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.3, 0.9} {
		l := rep.Points[i].Longitudinal
		if l == nil || l.Decay != want {
			t.Fatalf("decay point %d did not run at %v: %+v", i, want, rep.Points[i])
		}
		if len(l.Epochs) != sweepDefaultEpochs {
			t.Fatalf("decay point %d ran %d epochs, want %d", i, len(l.Epochs), sweepDefaultEpochs)
		}
	}
}
