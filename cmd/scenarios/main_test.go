package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"aliaslimit/internal/scenario"
)

// TestRunList checks that every catalog preset appears in -list.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -list: %v (stderr: %s)", err, stderr.String())
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing preset %q:\n%s", name, stdout.String())
		}
	}
	if n := len(scenario.Names()); n < 8 {
		t.Fatalf("catalog lists %d presets, want >= 8", n)
	}
}

// TestRunScenarioText runs one tiny scenario and checks the scorecard.
func TestRunScenarioText(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "baseline", "-scale", "0.05"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	for _, want := range []string{"scenario baseline", "precision", "SSH", "midar:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("scorecard missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunScenarioJSONDeterministic runs one scenario twice and requires
// byte-identical reports — the SCENARIOS.json contract.
func TestRunScenarioJSONDeterministic(t *testing.T) {
	emit := func() string {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-run", "lossy", "-scale", "0.05", "-json", "-"},
			&stdout, &stderr)
		if err != nil {
			t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
		}
		return stdout.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatalf("reports differ between identical runs:\n%s\n---\n%s", a, b)
	}
	rep, err := scenario.ParseReport([]byte(a))
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Scenario != "lossy" {
		t.Fatalf("unexpected report shape: %+v", rep.Scenarios)
	}
	if len(rep.Scenarios[0].Protocols) != 3 {
		t.Fatalf("want 3 protocol scores, got %d", len(rep.Scenarios[0].Protocols))
	}
}

// TestMerge merges two single-scenario files and checks canonical order.
func TestMerge(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"lossy", "baseline"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-run", name, "-scale", "0.05",
			"-json", filepath.Join(dir, "SCENARIOS-"+name+".json")}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
	}
	out := filepath.Join(dir, "SCENARIOS.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-merge", filepath.Join(dir, "SCENARIOS-*.json"), "-json", out},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("merge: %v (stderr: %s)", err, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("merged %d scenarios, want 2", len(rep.Scenarios))
	}
	if rep.Scenarios[0].Scenario != "baseline" || rep.Scenarios[1].Scenario != "lossy" {
		t.Fatalf("merge order not canonical: %s, %s",
			rep.Scenarios[0].Scenario, rep.Scenarios[1].Scenario)
	}
	checkGolden(t, "merge-baseline-lossy.golden.json", data)
}

// update rewrites the golden reports from the current output:
//
//	go test ./cmd/scenarios -run 'TestMerge|TestLongitudinalJSONDeterministic|TestRunAllSkipsStreamOnly' -update
var update = flag.Bool("update", false, "rewrite the cmd/scenarios golden reports")

// checkGolden compares report bytes with testdata/name, or rewrites that file
// under -update. The goldens pin what a sets digest cannot see: scores, MIDAR
// tallies, per-epoch digests and merge-strategy scores.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("report differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			return
		}
	}
}

// setGOMAXPROCS sets GOMAXPROCS to n until the test ends, when t.Cleanup
// restores the value it replaced. No test in this package calls t.Parallel,
// so changing the process-wide setting is safe.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestLongitudinalJSONDeterministic runs a multi-epoch scenario at
// GOMAXPROCS 1 (a sequential world build and 4-wide scan pools) and at the
// default, at two seeds, and requires byte-identical SCENARIOS.json output
// per seed — the longitudinal extension of the determinism contract. CI runs
// this under -race.
func TestLongitudinalJSONDeterministic(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	emit := func(seed string, procs int) string {
		setGOMAXPROCS(t, procs)
		var stdout, stderr bytes.Buffer
		err := run([]string{"-run", "churn-storm", "-epochs", "3", "-scale", "0.05",
			"-seed", seed, "-json", "-"}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
		}
		return stdout.String()
	}
	var perSeed []string
	for _, seed := range []string{"1", "7"} {
		seq := emit(seed, 1)
		par := emit(seed, def)
		if seq != par {
			t.Fatalf("seed %s: longitudinal reports differ between GOMAXPROCS 1 and %d:\n%s\n---\n%s",
				seed, def, seq, par)
		}
		rep, err := scenario.ParseReport([]byte(seq))
		if err != nil {
			t.Fatalf("seed %s: report does not parse: %v", seed, err)
		}
		if len(rep.Longitudinal) != 1 || len(rep.Longitudinal[0].Epochs) != 3 {
			t.Fatalf("seed %s: unexpected longitudinal shape: %+v", seed, rep.Longitudinal)
		}
		for _, e := range rep.Longitudinal[0].Epochs {
			if len(e.Protocols) != 3 {
				t.Fatalf("seed %s epoch %d: %d protocol scores", seed, e.Epoch, len(e.Protocols))
			}
		}
		checkGolden(t, "churn-storm-epochs3-seed"+seed+".golden.json", []byte(seq))
		perSeed = append(perSeed, seq)
	}
	if perSeed[0] == perSeed[1] {
		t.Fatal("different seeds produced identical longitudinal reports")
	}
}

// TestLongitudinalText checks the human-readable multi-epoch scorecard.
func TestLongitudinalText(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "baseline", "-epochs", "2", "-scale", "0.05"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	for _, want := range []string{"2 epochs", "identifier persistence", "alias-set survival",
		"naive-union", "decay-weighted"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("longitudinal scorecard missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestSweepCLI runs a tiny loss sweep through the CLI, text and JSON.
func TestSweepCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "baseline", "-sweep", "loss=0,10", "-scale", "0.05"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	for _, want := range []string{"sweep loss on baseline", "0.0%", "10.0%"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("sweep output missing %q:\n%s", want, stdout.String())
		}
	}
	out := filepath.Join(t.TempDir(), "SWEEP-loss.json")
	stdout.Reset()
	stderr.Reset()
	err = run([]string{"-run", "baseline", "-sweep", "loss=0,10", "-scale", "0.05",
		"-json", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -json: %v (stderr: %s)", err, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"axis": "loss"`, `"value": 0.1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("sweep JSON missing %q:\n%s", want, data)
		}
	}
}

// TestBackendFlag: the resolver has no backends to choose from, and
// concurrency follows GOMAXPROCS, so -backend, -shard-workers, -workers and
// -parallelism are unknown flags, whatever their value, and exit with the
// usage error.
func TestBackendFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "baseline", "-backend", "batch"},
		{"-run", "baseline", "-backend", "distributed"},
		{"-run", "all", "-quick", "-backend", "all"},
		{"-run", "baseline", "-shard-workers", "2"},
		{"-run", "baseline", "-workers", "16"},
		{"-run", "baseline", "-parallelism", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Errorf("%v: want errBadFlags, got %v", args, err)
		}
	}
}

// TestBackendValidationMessage pins how a retired -backend fails: before
// any world is built, with the flag package's message naming the flag. The
// run would take far longer than the time bound if a world were built
// first, so the bound doubles as the fail-fast check.
func TestBackendValidationMessage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	err := run([]string{"-run", "baseline", "-backend", "distributed"}, &stdout, &stderr)
	if !errors.Is(err, errBadFlags) {
		t.Fatalf("-backend: want errBadFlags, got %v", err)
	}
	if !strings.HasPrefix(stderr.String(), "flag provided but not defined: -backend\n") {
		t.Fatalf("stderr = %q, want the unknown-flag message for -backend", stderr.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("rejection took %v; flag parsing must fail before the world build", elapsed)
	}
}

// TestSweepEpochsCLI sweeps the longitudinal depth through the CLI: values
// are epoch counts, not percentages.
func TestSweepEpochsCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "churn-storm", "-sweep", "epochs=2,3", "-scale", "0.05",
		"-json", "-"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	for _, want := range []string{`"axis": "epochs"`, `"value": 2`, `"value": 3`, `"longitudinal"`} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("epochs sweep JSON missing %q", want)
		}
	}
}

// TestCIMatrixCoversCatalog pins the GitHub Actions scenario matrix to the
// preset catalog: adding a preset without adding it to the CI matrix (or
// vice versa) fails here instead of silently shrinking coverage.
func TestCIMatrixCoversCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	if !strings.Contains(text, "scenario-matrix:") {
		t.Fatal("ci.yml has no scenario-matrix job")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(text, "- "+name) {
			t.Errorf("preset %q missing from the ci.yml scenario matrix", name)
		}
	}
}

// TestCILongitudinalCoversPresets pins the CI longitudinal job to the
// epochs-capable preset list: marking a preset Longitudinal without adding it
// to the ci.yml longitudinal matrix (or vice versa) fails here.
func TestCILongitudinalCoversPresets(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "scenario-longitudinal:")
	if idx < 0 {
		t.Fatal("ci.yml has no scenario-longitudinal job")
	}
	end := strings.Index(text[idx:], "\n  scenario-merge:")
	if end < 0 {
		end = len(text) - idx
	}
	job := text[idx : idx+end]
	names := scenario.LongitudinalNames()
	if len(names) < 2 {
		t.Fatalf("longitudinal preset list too small: %v", names)
	}
	for _, name := range names {
		if !strings.Contains(job, "- "+name) {
			t.Errorf("longitudinal preset %q missing from the ci.yml scenario-longitudinal matrix", name)
		}
	}
	if !strings.Contains(job, "-epochs 5") {
		t.Error("ci.yml longitudinal job does not run -epochs 5")
	}
}

// TestCISweepJobPresent pins the nightly sweep job and its axes: loss and
// churn for the single-snapshot layer, decay and epochs for the longitudinal
// one.
func TestCISweepJobPresent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	for _, want := range []string{"workflow_dispatch:", "schedule:", "sweep:",
		"-sweep loss=1,5,10,20,30", "-sweep churn=", "-sweep decay=", "-sweep epochs="} {
		if !strings.Contains(text, want) {
			t.Errorf("ci.yml missing %q for the nightly sweep job", want)
		}
	}
}

// TestBadArguments covers the error paths.
func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "no-such-world", "-scale", "0.05"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-run", "baseline", "-epochs", "0", "-scale", "0.05"}, &stdout, &stderr); err != nil {
		t.Fatalf("-epochs 0 (single snapshot) should run normally, got %v", err)
	}
	if err := run([]string{"-run", "baseline", "-sweep", "loss", "-scale", "0.05"}, &stdout, &stderr); err == nil {
		t.Fatal("malformed -sweep accepted")
	}
	if err := run([]string{"-run", "baseline", "-sweep", "loss=x", "-scale", "0.05"}, &stdout, &stderr); err == nil {
		t.Fatal("non-numeric -sweep value accepted")
	}
	if err := run(nil, &stdout, &stderr); !errors.Is(err, errBadFlags) {
		t.Fatalf("no mode: want errBadFlags, got %v", err)
	}
	if err := run([]string{"-merge", filepath.Join(t.TempDir(), "nope-*.json")}, &stdout, &stderr); err == nil {
		t.Fatal("empty merge glob accepted")
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
}

// TestLogResumeCLI drives the durable-run flags end to end: a full logged run
// and a -resume of its (already complete) log directory must emit the exact
// same report bytes, every epoch replayed from disk through the digest gates.
func TestLogResumeCLI(t *testing.T) {
	dir := t.TempDir()
	logDir := filepath.Join(dir, "RUN")
	refPath := filepath.Join(dir, "REF.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "churn-storm", "-epochs", "2", "-scale", "0.05",
		"-log", logDir, "-json", refPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("logged run: %v (stderr: %s)", err, stderr.String())
	}
	for _, f := range []string{"MANIFEST.json", "ssh.obslog", "bgp.obslog", "snmpv3.obslog",
		filepath.Join("epochs", "epoch-0000.json"), filepath.Join("epochs", "epoch-0001.json")} {
		if _, err := os.Stat(filepath.Join(logDir, f)); err != nil {
			t.Errorf("durable run left no %s: %v", f, err)
		}
	}

	resumedPath := filepath.Join(dir, "RESUMED.json")
	stdout.Reset()
	stderr.Reset()
	err = run([]string{"-resume", logDir, "-json", resumedPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("resume: %v (stderr: %s)", err, stderr.String())
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, resumed) {
		t.Errorf("resumed report differs from the original run's:\n%s\n---\n%s", ref, resumed)
	}
}

// TestLogResumeFlagCombos pins the single-run contract of the durable flags:
// a log records exactly one run, and -resume takes its identity from the
// manifest, so every multi-run or conflicting combination is rejected before
// any world is built.
func TestLogResumeFlagCombos(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-run", "all", "-quick", "-log", filepath.Join(dir, "a")},
		{"-run", "baseline", "-quick", "-sweep", "loss=1,5", "-log", filepath.Join(dir, "c")},
		{"-merge", "x*.json", "-log", filepath.Join(dir, "d")},
		{"-run", "baseline", "-quick", "-log", filepath.Join(dir, "e"), "-resume", filepath.Join(dir, "e")},
		{"-resume", filepath.Join(dir, "f"), "-run", "baseline"},
		{"-resume", filepath.Join(dir, "g"), "-sweep", "loss=1,5"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("args %v accepted, want rejection", args)
		}
	}
	// A -resume of a directory with no log fails cleanly too.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-resume", filepath.Join(dir, "nothing-here")}, &stdout, &stderr); err == nil {
		t.Error("-resume of a directory without a log accepted")
	}
}

// TestResumeRefusesRetiredBackend: a log whose manifest names a resolver
// backend this build no longer has — such as one written with -backend
// distributed — does not resume, and the error names the manifest field and
// its value.
func TestResumeRefusesRetiredBackend(t *testing.T) {
	logDir := filepath.Join(t.TempDir(), "RUN")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "baseline", "-epochs", "2", "-scale", "0.03",
		"-log", logDir, "-json", filepath.Join(t.TempDir(), "REF.json")}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("logged run: %v (stderr: %s)", err, stderr.String())
	}
	manifest := filepath.Join(logDir, "MANIFEST.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	retired := bytes.Replace(data, []byte(`"backend": "batch"`), []byte(`"backend": "distributed"`), 1)
	if bytes.Equal(retired, data) {
		t.Fatalf("manifest does not record the batch backend:\n%s", data)
	}
	if err := os.WriteFile(manifest, retired, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-resume", logDir}, &stdout, &stderr)
	if err == nil {
		t.Fatal("resume of a distributed-backend log accepted")
	}
	for _, want := range []string{"backend", `"distributed"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("resume error %q does not name %s", err, want)
		}
	}
}

// TestWriteJSONAtomic pins the report writer's crash contract: a failed write
// must leave no partial file and no temp debris — the write goes through a
// temp file and a rename, never through the destination path directly.
func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	if err := writeJSON([]byte("{\"ok\":true}\n"), path, "test", &stdout, &stderr); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "{\"ok\":true}\n" {
		t.Fatalf("wrote %q, %v", data, err)
	}

	// Block the destination with a non-empty directory: the final rename
	// fails, and the failure must leave the directory intact and no
	// temp files behind.
	blocked := filepath.Join(dir, "blocked.json")
	if err := os.MkdirAll(filepath.Join(blocked, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON([]byte("{}\n"), blocked, "test", &stdout, &stderr); err == nil {
		t.Fatal("writeJSON over a non-empty directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(blocked, "sub")); err != nil {
		t.Errorf("failed write destroyed the obstruction: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.json" && e.Name() != "blocked.json" {
			t.Errorf("failed write left debris %q", e.Name())
		}
	}
}

// TestCICrashResumeJob pins the CI kill-and-resume gate: the workflow must
// run the harness script, which builds a real binary, SIGKILLs the durable
// run mid-flight, resumes it, and diffs every sets digest against the
// uninterrupted reference.
func TestCICrashResumeJob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "crash-resume:")
	if idx < 0 {
		t.Fatal("ci.yml has no crash-resume job")
	}
	job := text[idx:]
	for _, want := range []string{"scripts/crash-resume.sh", "RESUMED.json", "MANIFEST.json"} {
		if !strings.Contains(job, want) {
			t.Errorf("crash-resume job missing %q", want)
		}
	}
	script, err := os.ReadFile(filepath.Join("..", "..", "scripts", "crash-resume.sh"))
	if err != nil {
		t.Fatalf("crash-resume job's script missing: %v", err)
	}
	for _, want := range []string{
		"go build -o", "-run churn-storm -epochs 5 -quick",
		"-log", "kill -9", "-resume", "sets_digest", "diff",
	} {
		if !strings.Contains(string(script), want) {
			t.Errorf("crash-resume.sh missing %q", want)
		}
	}
}

// TestCIBoundedMemoryJob pins the CI out-of-core memory gate: the workflow
// must run the harness script, which builds a real binary, runs the streamed
// collection under a GOMEMLIMIT the in-RAM path cannot satisfy, diffs the
// sets digest against an unrestricted in-RAM run, and drives the stream-only
// megascale-x100 world end to end.
func TestCIBoundedMemoryJob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "bounded-memory:")
	if idx < 0 {
		t.Fatal("ci.yml has no bounded-memory job")
	}
	job := text[idx:]
	if end := strings.Index(job, "\n  log-diff:"); end >= 0 {
		job = job[:end]
	}
	for _, want := range []string{"scripts/bounded-memory.sh", "UNRESTRICTED.json", "STREAMED.json"} {
		if !strings.Contains(job, want) {
			t.Errorf("bounded-memory job missing %q", want)
		}
	}
	script, err := os.ReadFile(filepath.Join("..", "..", "scripts", "bounded-memory.sh"))
	if err != nil {
		t.Fatalf("bounded-memory job's script missing: %v", err)
	}
	for _, want := range []string{
		"go build -o", "GOMEMLIMIT", "-run megascale-x10 -quick -stream-collect",
		"-run megascale-x100 -quick -stream-collect",
		"sets_digest", "diff",
	} {
		if !strings.Contains(string(script), want) {
			t.Errorf("bounded-memory.sh missing %q", want)
		}
	}
	// The scenario matrix's stream-only leg must carry its flag, and the run
	// step must thread it through.
	if !strings.Contains(text, "flags: -stream-collect") {
		t.Error("ci.yml scenario matrix does not give megascale-x100 its -stream-collect flag")
	}
	if !strings.Contains(text, "${{ matrix.flags }}") {
		t.Error("ci.yml scenario matrix run step does not thread matrix.flags")
	}
}

// TestStreamCollectFlagCombos pins the out-of-core CLI contract: the replay
// readahead is fixed, so -mem-budget is an unknown flag that fails before
// any world is built, with or without -stream-collect; and a stream-only
// preset refuses an in-RAM run with an error naming the missing flag.
func TestStreamCollectFlagCombos(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-run", "baseline", "-mem-budget", "1048576"},
		{"-run", "megascale-x100", "-quick", "-stream-collect", "-mem-budget", "1048576"},
	} {
		stderr.Reset()
		start := time.Now()
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Fatalf("%v: want errBadFlags, got %v", args, err)
		}
		if !strings.HasPrefix(stderr.String(), "flag provided but not defined: -mem-budget\n") {
			t.Errorf("%v: stderr = %q, want the unknown-flag message for -mem-budget", args, stderr.String())
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("%v: rejection took %v; flag parsing must fail before the world build", args, elapsed)
		}
	}
	err := run([]string{"-run", "megascale-x100", "-scale", "0.04"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("in-RAM megascale-x100 accepted")
	}
	if !strings.Contains(err.Error(), "-stream-collect") {
		t.Fatalf("stream-only refusal does not name -stream-collect: %v", err)
	}
}

// TestRunAllSkipsStreamOnly: a catalog run without -stream-collect must skip
// the stream-only worlds loudly and still succeed; with the flag, the same
// invocation covers them. The in-RAM report is pinned byte for byte, so every
// preset's scores and MIDAR tally are covered.
func TestRunAllSkipsStreamOnly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "all", "-scale", "0.04", "-json", "-"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run all: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "skipping megascale-x100") {
		t.Errorf("catalog run did not announce the stream-only skip:\n%s", stderr.String())
	}
	rep, err := scenario.ParseReport(stdout.Bytes())
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	for _, r := range rep.Scenarios {
		if r.Scenario == "megascale-x100" {
			t.Fatal("stream-only preset ran without -stream-collect")
		}
	}
	if want := len(scenario.Names()) - 1; len(rep.Scenarios) != want {
		t.Errorf("catalog run covered %d presets, want %d", len(rep.Scenarios), want)
	}
	checkGolden(t, "all-scale0.04.golden.json", stdout.Bytes())

	stdout.Reset()
	stderr.Reset()
	err = run([]string{"-run", "all", "-scale", "0.04", "-stream-collect", "-json", "-"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run all -stream-collect: %v (stderr: %s)", err, stderr.String())
	}
	rep, err = scenario.ParseReport(stdout.Bytes())
	if err != nil {
		t.Fatalf("streamed report does not parse: %v", err)
	}
	if len(rep.Scenarios) != len(scenario.Names()) {
		t.Errorf("streamed catalog run covered %d presets, want %d", len(rep.Scenarios), len(scenario.Names()))
	}
}

// TestCILogDiffJob pins the CI byte-determinism gate: two independent durable
// runs, every log shard and the manifest compared byte for byte, the log
// uploaded as an artifact.
func TestCILogDiffJob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "log-diff:")
	if idx < 0 {
		t.Fatal("ci.yml has no log-diff job")
	}
	job := text[idx:]
	for _, want := range []string{
		"-run baseline -quick -log LOG-a", "-run baseline -quick -log LOG-b",
		"cmp", "ssh.obslog", "bgp.obslog", "snmpv3.obslog", "MANIFEST.json",
		"upload-artifact",
	} {
		if !strings.Contains(job, want) {
			t.Errorf("log-diff job missing %q", want)
		}
	}
}
