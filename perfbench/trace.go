package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Phases a span can belong to. Only loop spans fall inside the timed part of
// a run; the others are set-up, the correctness checks, and the twin probes.
const (
	phaseLoop   = "loop"
	phaseSetup  = "setup"
	phaseVerify = "verify"
	phaseProbe  = "probe"
)

// phaseRank orders the phases a layer figure is taken from: a layer that runs
// inside the timed part is reported from there, else from set-up, else from
// the checks, else from the twin probe.
var phaseRank = []string{phaseLoop, phaseSetup, phaseVerify, phaseProbe}

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Start and End are offsets from the tracer's origin.
type span struct {
	ID     int                `json:"id"`
	Name   string             `json:"name"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Phase  string             `json:"phase"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the workloads run one code path
// with tracing on or off.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// scope names where new spans go: the run (iteration, set-up round or probe)
// they belong to, its phase, and the parent span (-1 for none).
type scope struct {
	t      *tracer
	run    string
	phase  string
	parent int
}

// root opens a scope with no parent span.
func (t *tracer) root(run, phase string) scope {
	return scope{t: t, run: run, phase: phase, parent: -1}
}

// begin opens a span in the scope and returns its id (-1 when untraced).
func (s scope) begin(name string) int {
	t := s.t
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: s.parent, Run: s.run, Phase: s.phase, Start: now})
	return id
}

// end closes a span.
func (s scope) end(id int) {
	t := s.t
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child returns a scope whose spans nest under span id.
func (s scope) child(id int) scope {
	s.parent = id
	return s
}

// count adds n items of one kind to a span.
func (s scope) count(id int, item string, n float64) {
	t := s.t
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	sp := &t.spans[id]
	if sp.Counts == nil {
		sp.Counts = make(map[string]float64)
	}
	sp.Counts[item] += n
	t.mu.Unlock()
}

// do runs f inside a span and returns the span id.
func (s scope) do(name string, f func()) int {
	id := s.begin(name)
	f()
	s.end(id)
	return id
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of intervals.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// layerSummary is one layer's figures: busy and self time and item counts,
// averaged over the runs (iterations, set-up rounds, probes) it appeared in,
// taken from the highest-ranked phase it ran in.
type layerSummary struct {
	Phase  string             `json:"phase"`
	Runs   int                `json:"runs"`
	Spans  int                `json:"spans"`
	BusyS  float64            `json:"busy_s"`
	SelfS  float64            `json:"self_s"`
	Counts map[string]float64 `json:"counts"`
}

// traceSummary is what a traced run derives from its spans.
type traceSummary struct {
	Layers map[string]*layerSummary `json:"layers"`
	// Coverage is, per traced iteration, the share of the iteration's wall
	// time that its direct child spans cover.
	Coverage []float64 `json:"coverage"`
}

// summarize computes per-layer busy and self time, each span's rescaled to
// the speedometer's reference host, and the span coverage of every iteration
// root named rootName.
func (t *tracer) summarize(rootName string, speed *speedometer) *traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	self := func(sp span) time.Duration {
		return sp.End - sp.Start - covered(append([]interval(nil), children[sp.ID]...))
	}

	out := &traceSummary{Layers: make(map[string]*layerSummary)}
	for _, sp := range t.spans {
		if sp.Name == rootName {
			if d := sp.End - sp.Start; d > 0 {
				out.Coverage = append(out.Coverage, float64(covered(append([]interval(nil), children[sp.ID]...)))/float64(d))
			}
		}
	}

	byName := make(map[string][]span)
	for _, sp := range t.spans {
		if sp.Name != rootName {
			byName[sp.Name] = append(byName[sp.Name], sp)
		}
	}
	for name, spans := range byName {
		var phase string
		for _, p := range phaseRank {
			for _, sp := range spans {
				if sp.Phase == p {
					phase = p
					break
				}
			}
			if phase != "" {
				break
			}
		}
		ls := &layerSummary{Phase: phase, Counts: make(map[string]float64)}
		runs := make(map[string]bool)
		for _, sp := range spans {
			if sp.Phase != phase {
				continue
			}
			runs[sp.Run] = true
			ls.Spans++
			f := speed.factor(t.origin.Add(sp.Start), t.origin.Add(sp.End))
			ls.BusyS += (sp.End - sp.Start).Seconds() * f
			ls.SelfS += self(sp).Seconds() * f
			for k, v := range sp.Counts {
				ls.Counts[k] += v
			}
		}
		ls.Runs = len(runs)
		n := float64(ls.Runs)
		ls.BusyS /= n
		ls.SelfS /= n
		for k := range ls.Counts {
			ls.Counts[k] /= n
		}
		out.Layers[name] = ls
	}
	return out
}

// writeFile writes every span and the summary as one JSON document.
func (t *tracer) writeFile(path string, sum *traceSummary, meta any) error {
	t.mu.Lock()
	doc := struct {
		Meta    any           `json:"meta"`
		Summary *traceSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{meta, sum, t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
