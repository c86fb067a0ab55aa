package experiments

import (
	"strings"
	"sync"
)

// RenderAll regenerates every table and figure of the paper's evaluation
// concurrently and returns them concatenated in paper order. The memoized
// view layer makes this safe and deterministic: shared derivations are
// computed once under sync.Once no matter which artifact asks first, and
// the only clock-mutating stage (Table 2's MIDAR run) executes exactly once
// via its memoized entry, so concurrent output is byte-identical to a
// sequential render.
func (e *Env) RenderAll() string {
	jobs := []func() string{
		func() string { return e.Table1().Render() },
		func() string { return e.Table2().Render() },
		func() string { return e.Table3().Render() },
		func() string { return e.Table4().Render() },
		func() string { return e.Table5().Render() },
		func() string { return e.Table6().Render() },
		func() string { return e.Figure3().Render() },
		func() string { return e.Figure4().Render() },
		func() string { return e.Figure5().Render() },
		func() string { return e.Figure6().Render() },
	}
	outs := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = job()
		}()
	}
	wg.Wait()
	var sb strings.Builder
	for _, out := range outs {
		sb.WriteString(out)
		sb.WriteByte('\n')
	}
	return sb.String()
}
