package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedFactor checks that a time is rescaled by the kernel samples taken
// around it, and by the run's median when none was.
func TestSpeedFactor(t *testing.T) {
	t0 := time.Now()
	s := &speedometer{}
	for i, ms := range []float64{1, 1, 2, 2, 4} {
		s.at = append(s.at, t0.Add(time.Duration(i)*time.Second))
		s.took = append(s.took, ms/1e3)
	}
	for _, c := range []struct {
		name   string
		t0, t1 time.Time
		want   float64
	}{
		{"first sample", t0, t0, 1},
		{"two samples", t0.Add(2 * time.Second), t0.Add(3 * time.Second), 0.5},
		{"padded to a sample", t0.Add(4*time.Second - speedPad/2), t0.Add(4*time.Second - speedPad/2), 0.25},
		{"no sample near", t0.Add(time.Minute), t0.Add(time.Minute), 0.5},
	} {
		if got := s.factor(c.t0, c.t1); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: factor %v, want %v", c.name, got, c.want)
		}
	}
	if got := (&speedometer{}).factor(t0, t0); got != 1 {
		t.Errorf("no samples: factor %v, want 1", got)
	}
}

// TestSpeedometerSamples checks that the speedometer samples the host while
// it runs and stops when closed.
func TestSpeedometerSamples(t *testing.T) {
	s := startSpeedometer()
	time.Sleep(10 * speedEvery)
	s.close()
	n := len(s.took)
	if n == 0 {
		t.Fatal("no kernel sample in ten sampling periods")
	}
	for _, k := range s.took {
		if k <= 0 {
			t.Fatalf("kernel sample %v, want a positive CPU time", k)
		}
	}
	time.Sleep(2 * speedEvery)
	if len(s.took) != n {
		t.Error("the speedometer sampled after close")
	}
}
