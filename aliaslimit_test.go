package aliaslimit

import (
	"strings"
	"sync"
	"testing"
)

var (
	studyOnce sync.Once
	studyVal  *Study
	studyErr  error
)

func testStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		studyVal, studyErr = Run(StudyOptions{Common: Common{Seed: 4, Scale: 0.08}})
	})
	if studyErr != nil {
		t.Fatalf("Run: %v", studyErr)
	}
	return studyVal
}

func TestRunAndStats(t *testing.T) {
	s := testStudy(t)
	st := s.Stats()
	if st.Devices == 0 || st.V4Addresses == 0 || st.V6Addresses == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.UnionAliasSetsV4 == 0 || st.DualStackSets == 0 {
		t.Errorf("no sets inferred: %+v", st)
	}
}

func TestRenderAllTablesAndFigures(t *testing.T) {
	s := testStudy(t)
	for _, id := range s.TableIDs() {
		out, err := s.RenderTable(id)
		if err != nil {
			t.Fatalf("RenderTable(%s): %v", id, err)
		}
		if !strings.Contains(out, id) {
			t.Errorf("%s output missing header", id)
		}
	}
	for _, id := range s.FigureIDs() {
		out, err := s.RenderFigure(id)
		if err != nil {
			t.Fatalf("RenderFigure(%s): %v", id, err)
		}
		if !strings.Contains(out, id) {
			t.Errorf("%s output missing header", id)
		}
	}
	all := s.RenderAll()
	for _, id := range append(s.TableIDs(), s.FigureIDs()...) {
		if !strings.Contains(all, id) {
			t.Errorf("RenderAll missing %s", id)
		}
	}
}

func TestRenderIDNormalization(t *testing.T) {
	s := testStudy(t)
	variants := []string{"Table 3", "table3", "TABLE-3", "table_3", "3"}
	var outs []string
	for _, v := range variants {
		out, err := s.RenderTable(v)
		if err != nil {
			t.Fatalf("RenderTable(%q): %v", v, err)
		}
		outs = append(outs, out)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Errorf("variant %q rendered differently", variants[i])
		}
	}
	if _, err := s.RenderTable("Table 9"); err == nil {
		t.Error("unknown table: want error")
	}
	if _, err := s.RenderFigure("Figure 1"); err == nil {
		t.Error("unknown figure: want error")
	}
}

func TestAliasSetAccessors(t *testing.T) {
	s := testStudy(t)
	for _, p := range []Protocol{SSH, BGP, SNMPv3} {
		sets, err := s.AliasSets(p, true)
		if err != nil {
			t.Fatalf("AliasSets(%s): %v", p, err)
		}
		for _, set := range sets {
			if len(set) < 2 {
				t.Fatalf("%s returned singleton set %v", p, set)
			}
			for _, a := range set {
				if !a.Is4() {
					t.Fatalf("%s v4 query returned %s", p, a)
				}
			}
		}
	}
	if _, err := s.AliasSets(Protocol("tcpdump"), true); err == nil {
		t.Error("unknown protocol: want error")
	}
	union := s.UnionAliasSets(true)
	ssh, _ := s.AliasSets(SSH, true)
	if len(union) < len(ssh) {
		t.Errorf("union (%d) smaller than SSH alone (%d)", len(union), len(ssh))
	}
	for _, set := range s.DualStackSets() {
		v4, v6 := 0, 0
		for _, a := range set {
			if a.Is4() {
				v4++
			} else {
				v6++
			}
		}
		if v4 == 0 || v6 == 0 {
			t.Fatalf("dual-stack set %v lacks a family", set)
		}
	}
}

func TestValidationAccessor(t *testing.T) {
	s := testStudy(t)
	sample, agree, disagree, err := s.Validation(SSH, SNMPv3)
	if err != nil {
		t.Fatal(err)
	}
	if sample != agree+disagree {
		t.Errorf("sample %d != agree %d + disagree %d", sample, agree, disagree)
	}
	if _, _, _, err := s.Validation(Protocol("x"), SSH); err == nil {
		t.Error("unknown protocol: want error")
	}
	if _, _, _, err := s.Validation(SSH, Protocol("y")); err == nil {
		t.Error("unknown protocol: want error")
	}
}

func TestMIDARValidationAccessor(t *testing.T) {
	s := testStudy(t)
	unverifiable, confirmed, split := s.MIDARValidation(10)
	total := unverifiable + confirmed + split
	if total == 0 || total > 10 {
		t.Errorf("tally out of range: %d/%d/%d", unverifiable, confirmed, split)
	}
}

func TestDeterministicRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two worlds")
	}
	a, err := Run(StudyOptions{Common: Common{Seed: 9, Scale: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(StudyOptions{Common: Common{Seed: 9, Scale: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.RenderTable("Table 3")
	tb, _ := b.RenderTable("Table 3")
	if ta != tb {
		t.Errorf("same seed produced different Table 3:\n%s\nvs\n%s", ta, tb)
	}
}

func TestRenderExtensions(t *testing.T) {
	s := testStudy(t)
	out, err := s.RenderExtensions()
	if err != nil {
		t.Fatalf("RenderExtensions: %v", err)
	}
	for _, want := range []string{"Extension A", "Extension B", "Extension D", "iffinder"} {
		if !strings.Contains(out, want) {
			t.Errorf("extensions output missing %q", want)
		}
	}
}
