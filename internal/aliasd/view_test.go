package aliasd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
	"aliaslimit/internal/xrand"
)

// countingSession wraps a resolver session to count the per-protocol
// snapshots (NonSingletonSets) of each protocol, the Merged calls and the
// full Sets snapshots of any protocol, so tests can check what a view read
// derives.
type countingSession struct {
	resolver.Session
	sets   [3]atomic.Int64 // NonSingletonSets, by ident.Protocol
	merged atomic.Int64
	full   atomic.Int64 // Sets, any protocol
}

func (s *countingSession) NonSingletonSets(p ident.Protocol) []alias.Set {
	s.sets[p].Add(1)
	return s.Session.NonSingletonSets(p)
}

func (s *countingSession) Merged(groups ...[]alias.Set) []alias.Set {
	s.merged.Add(1)
	return s.Session.Merged(groups...)
}

func (s *countingSession) Sets(p ident.Protocol) []alias.Set {
	s.full.Add(1)
	return s.Session.Sets(p)
}

// calls is a snapshot of a countingSession's counters.
type calls struct{ ssh, bgp, snmp, merged, full int64 }

func (s *countingSession) calls() calls {
	return calls{s.sets[ident.SSH].Load(), s.sets[ident.BGP].Load(), s.sets[ident.SNMP].Load(), s.merged.Load(), s.full.Load()}
}

// viewCorpus draws ingest records over a small address pool: all three
// protocols, both address families, identifiers shared across families (so
// the dualstack view is non-empty), and duplicate lines.
func viewCorpus(seed uint64, n int) [][3]string {
	rng := xrand.NewSplitMix64(seed)
	protos := []string{"SSH", "BGP", "SNMPv3"}
	recs := make([][3]string, 0, n+4)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("10.0.%d.%d", rng.Intn(4), 1+rng.Intn(60))
		if rng.Intn(3) == 0 {
			addr = fmt.Sprintf("2001:db8::%x", 1+rng.Intn(60))
		}
		recs = append(recs, [3]string{addr, protos[rng.Intn(3)], fmt.Sprintf("id-%d", rng.Intn(n/4+1))})
	}
	return append(recs, recs[0], recs[n/2],
		[3]string{"10.9.0.1", "SSH", "dual"}, [3]string{"2001:db8:9::1", "SSH", "dual"})
}

// reference derives the scored partitions of recs through a fresh resolver
// session, by view name, and their digest.
func reference(t *testing.T, recs [][3]string) (map[string][]alias.Set, string) {
	t.Helper()
	obs := make([]alias.Observation, len(recs))
	for i, r := range recs {
		o, err := obsfile.Parse(obsfile.Record{Addr: r[0], Proto: r[1], Digest: r[2]})
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = o
	}
	return referenceObs(t, obs)
}

// referenceObs is reference over observations already parsed.
func referenceObs(t *testing.T, obs []alias.Observation) (map[string][]alias.Set, string) {
	t.Helper()
	s := resolver.NewSession()
	for _, o := range obs {
		s.Observe(o)
	}
	parts := scenario.SessionPartitions(s)
	digest, _ := scenario.DigestPartitions(parts)
	return byName(parts), digest
}

// byName indexes partitions by name.
func byName(parts []scenario.Partition) map[string][]alias.Set {
	views := make(map[string][]alias.Set, len(parts))
	for _, p := range parts {
		views[p.Name] = p.Sets
	}
	return views
}

// setsReply is the /v1/sets payload.
type setsReply struct {
	View  string     `json:"view"`
	Count int        `json:"count"`
	Sets  [][]string `json:"sets"`
}

// ingestFlush posts recs to a session and waits until they are applied.
func ingestFlush(t *testing.T, base, id string, recs [][3]string) {
	t.Helper()
	if code := post(t, base+"/v1/ingest?session="+id, obsLines(recs...), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if code := post(t, base+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
}

// checkView asserts that one /v1/sets read equals the reference partition:
// decoded, as address strings, and as raw bytes, which must be the reference
// encoding's, with its status and Content-Type.
func checkView(t *testing.T, base, id, view string, want map[string][]alias.Set) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sets?session=" + id + "&view=" + view)
	if err != nil {
		t.Fatalf("view %s: %v", view, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("view %s: reading reply: %v", view, err)
	}
	var got setsReply
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("view %s: decoding reply: %v", view, err)
	}
	lists := make([][]string, len(want[view]))
	for i, set := range want[view] {
		for _, a := range set.Addrs {
			lists[i] = append(lists[i], a.String())
		}
	}
	if got.View != view || got.Count != len(lists) || fmt.Sprint(got.Sets) != fmt.Sprint(lists) {
		t.Fatalf("view %s = %d sets %v, want %d sets %v", view, got.Count, got.Sets, len(lists), lists)
	}
	ref := referenceSetsReply(id, view, want[view])
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != ref.Code || ct != ref.Header().Get("Content-Type") ||
		!bytes.Equal(body, ref.Body.Bytes()) {
		t.Fatalf("view %s: status %d, %s:\n%s\nwant the reference status %d, %s:\n%s",
			view, resp.StatusCode, ct, body, ref.Code, ref.Header().Get("Content-Type"), ref.Body)
	}
}

// checkStats asserts that /v1/stats reports the reference digest.
func checkStats(t *testing.T, base, id, want string) {
	t.Helper()
	var got statsReply
	if code := get(t, base+"/v1/stats?session="+id, &got); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if got.SetsDigest != want {
		t.Fatalf("stats digest %s, want %s", got.SetsDigest, want)
	}
}

// zonedRecords are ingest records whose IPv6 zones /v1/sets must escape as
// encoding/json does: HTML characters, a quote, a backslash, a tab, U+2028
// and U+FFFD, each of which obsLines's %q writes as JSON reads it. The
// records share identifiers, so the zoned addresses reach the ssh, bgp,
// union-v6 and dualstack views.
var zonedRecords = [][3]string{
	{`fe80::1%<a&b>`, "SSH", "zone-1"},
	{`fe80::1%q"\`, "SSH", "zone-1"},
	{"fe80::2%\t\u2028", "BGP", "zone-2"},
	{"fe80::2%\ufffd", "BGP", "zone-2"},
	{"10.0.9.9", "SSH", "zone-1"},
}

// hasZone reports whether any set holds an address with a zone.
func hasZone(sets []alias.Set) bool {
	for _, set := range sets {
		for _, a := range set.Addrs {
			if a.Zone() != "" {
				return true
			}
		}
	}
	return false
}

// TestViewReadsMatchFreshDerivation: whatever order a session's views are
// read in — each view first, last and in between, or the stats first — every
// /v1/sets response equals the same partition of SessionPartitions over a
// fresh batch session fed the same observations, byte for byte in the
// reference encoding, and /v1/stats reports its digest, at each of two
// applied counts.
func TestViewReadsMatchFreshDerivation(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	corpus := append(viewCorpus(5, 400), zonedRecords...)
	stages := [][][3]string{corpus[:len(corpus)/2], corpus}
	wants := make([]map[string][]alias.Set, len(stages))
	digests := make([]string, len(stages))
	for i, recs := range stages {
		wants[i], digests[i] = reference(t, recs)
	}
	if len(wants[0]["dualstack"]) == 0 || len(wants[1]["snmpv3"]) == 0 {
		t.Fatal("corpus lacks dual-stack or SNMPv3 sets")
	}
	for _, view := range []string{"ssh", "bgp", "union-v6", "dualstack"} {
		if !hasZone(wants[1][view]) {
			t.Fatalf("no zoned address reaches the %s view", view)
		}
	}

	names := scenario.PartitionNames
	for k := 0; k <= len(names); k++ {
		// Orders 0..5 rotate the views and read the stats last; order 6
		// reads the stats first.
		order := append(append([]string{}, names[k%len(names):]...), names[:k%len(names)]...)
		statsFirst := k == len(names)
		id := createTestSession(t, ts.URL, `{}`)
		prev := 0
		for i, recs := range stages {
			ingestFlush(t, ts.URL, id, recs[prev:])
			prev = len(recs)
			if statsFirst {
				checkStats(t, ts.URL, id, digests[i])
			}
			for _, view := range order {
				checkView(t, ts.URL, id, view, wants[i])
			}
			checkStats(t, ts.URL, id, digests[i])
		}
	}
}

// TestViewReadsDeriveOnlyTheirView: within one applied count each protocol
// is snapshotted at most once and each merge runs at most once; a protocol
// view takes only its own snapshot and merges nothing; a repeated /v1/stats
// derives nothing; and no view or stats read takes a full snapshot (Sets),
// whose one-address sets no partition uses.
func TestViewReadsDeriveOnlyTheirView(t *testing.T) {
	srv := NewServer(Config{newSession: func() resolver.Session {
		return &countingSession{Session: resolver.NewSession()}
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createTestSession(t, ts.URL, `{}`)
	sess, err := srv.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	cs := sess.rsess.(*countingSession)
	corpus := viewCorpus(9, 300)
	want, digest := reference(t, corpus[:100])

	step := func(label, url string, delta calls) {
		t.Helper()
		before := cs.calls()
		if code := get(t, ts.URL+url, nil); code != http.StatusOK {
			t.Fatalf("%s: status %d", label, code)
		}
		after := cs.calls()
		got := calls{after.ssh - before.ssh, after.bgp - before.bgp, after.snmp - before.snmp,
			after.merged - before.merged, after.full - before.full}
		if got != delta {
			t.Fatalf("%s: calls %+v, want %+v", label, got, delta)
		}
	}
	sets := func(view string) string { return "/v1/sets?session=" + id + "&view=" + view }
	stats := "/v1/stats?session=" + id

	ingestFlush(t, ts.URL, id, corpus[:100])
	step("bgp", sets("bgp"), calls{bgp: 1})
	step("bgp again", sets("bgp"), calls{})
	step("ssh", sets("ssh"), calls{ssh: 1})
	step("union-v4", sets("union-v4"), calls{snmp: 1, merged: 1})
	step("union-v4 again", sets("union-v4"), calls{})
	step("union-v6", sets("union-v6"), calls{merged: 1})
	step("dualstack", sets("dualstack"), calls{merged: 1})
	step("snmpv3", sets("snmpv3"), calls{})
	step("stats after every view", stats, calls{})
	for _, view := range scenario.PartitionNames {
		checkView(t, ts.URL, id, view, want)
	}
	checkStats(t, ts.URL, id, digest)

	ingestFlush(t, ts.URL, id, corpus[100:200])
	step("stats first", stats, calls{ssh: 1, bgp: 1, snmp: 1, merged: 3})
	step("stats again", stats, calls{})
	for _, view := range scenario.PartitionNames {
		step(view+" after stats", sets(view), calls{})
	}

	ingestFlush(t, ts.URL, id, corpus[200:])
	step("bgp alone", sets("bgp"), calls{bgp: 1})
	step("dualstack", sets("dualstack"), calls{ssh: 1, snmp: 1, merged: 1})
	step("stats", stats, calls{merged: 2})
	step("stats again", stats, calls{})
}

// TestConcurrentIngestAndViews: ingest, all six view reads and stats reads
// race on one session; once the final flush lands, every view and the
// digest match a fresh derivation. Run under -race.
func TestConcurrentIngestAndViews(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	id := createTestSession(t, ts.URL, `{}`)
	corpus := viewCorpus(13, 600)
	want, digest := reference(t, corpus)

	fetch := func(method, url, body string) error {
		req, err := http.NewRequest(method, ts.URL+url, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var reply map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
		}
		return nil
	}

	const ingesters, readers = 3, 3
	var ingest, read sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < ingesters; g++ {
		ingest.Add(1)
		go func(g int) {
			defer ingest.Done()
			for i := g * 20; i < len(corpus); i += ingesters * 20 {
				body := obsLines(corpus[i:min(i+20, len(corpus))]...)
				if err := fetch(http.MethodPost, "/v1/ingest?session="+id, body); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		read.Add(1)
		go func(g int) {
			defer read.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				url := "/v1/stats?session=" + id
				if v := i % (len(scenario.PartitionNames) + 1); v < len(scenario.PartitionNames) {
					url = "/v1/sets?session=" + id + "&view=" + scenario.PartitionNames[v]
				}
				if err := fetch(http.MethodGet, url, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	ingest.Wait()
	close(done)
	read.Wait()

	if code := post(t, ts.URL+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	for _, view := range scenario.PartitionNames {
		checkView(t, ts.URL, id, view, want)
	}
	checkStats(t, ts.URL, id, digest)
}

// TestMalformedLinesRejectedAlike: obsfile.Read and the ingest endpoint
// reject the same malformed lines with the same message, each prefixed with
// the line number (obsfile.Read adds its package name), and the endpoint
// answers 400 having accepted the lines before it. They also accept the same
// bodies, canonical or not: the endpoint accepts every record, and after a
// flush each view equals SessionPartitions over the observations
// obsfile.Read returns.
func TestMalformedLinesRejectedAlike(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	good := `{"addr":"10.0.0.1","proto":"SSH","digest":"k1"}` + "\n"
	for name, line := range map[string]string{
		"bad json":         `{"addr":`,
		"bad address":      `{"addr":"not-an-ip","proto":"SSH","digest":"k1"}`,
		"unknown protocol": `{"addr":"10.0.0.2","proto":"GOPHER","digest":"k1"}`,
		"missing protocol": `{"addr":"10.0.0.2","digest":"k1"}`,
		"empty digest":     `{"addr":"10.0.0.2","proto":"SSH","digest":""}`,
	} {
		body := good + line + "\n"
		_, readErr := obsfile.Read(strings.NewReader(body))
		if readErr == nil {
			t.Errorf("%s: obsfile.Read accepted %s", name, line)
			continue
		}
		id := createTestSession(t, ts.URL, `{}`)
		var reply errorBody
		if code := post(t, ts.URL+"/v1/ingest?session="+id, body, &reply); code != http.StatusBadRequest {
			t.Errorf("%s: ingest status %d, want 400", name, code)
		}
		if want := strings.TrimPrefix(readErr.Error(), "obsfile: "); reply.Error != want {
			t.Errorf("%s: ingest error %q, obsfile.Read error %q", name, reply.Error, readErr)
		}
		if !strings.HasPrefix(reply.Error, "line 2: ") || reply.Accepted != 1 {
			t.Errorf("%s: ingest reply %+v, want line 2 after 1 accepted", name, reply)
		}
	}

	dual := `{"addr":"10.0.0.2","proto":"SSH","digest":"k1"}` + "\n" +
		`{"addr":"2001:db8::2","proto":"SSH","digest":"k1"}` + "\n"
	for name, body := range map[string]string{
		"uppercase key":   `{"ADDR":"10.0.0.2","proto":"SSH","digest":"k1"}` + "\n" + good,
		"unknown field":   `{"addr":"10.0.0.2","proto":"SSH","digest":"k1","port":22}` + "\n" + good,
		"escaped address": `{"addr":"10.0.0.\u0032","proto":"SSH","digest":"k1"}` + "\n" + good,
		"crlf":            strings.ReplaceAll(good+dual, "\n", "\r\n"),
		"spanning record": good + `{"addr":"10.0.0.2",` + "\n" + `"proto":"SSH","digest":"k1"}` + "\n",
		"non-canonical after canonical": good + dual +
			`{"proto":"BGP","addr":"10.0.0.3","digest":"b1"}` + "\n" +
			`{"addr":"2001:db8::3","proto":"BGP","digest":"b1","extra":true}` + "\n" + good,
	} {
		obs, err := obsfile.Read(strings.NewReader(body))
		if err != nil {
			t.Errorf("%s: obsfile.Read: %v", name, err)
			continue
		}
		id := createTestSession(t, ts.URL, `{}`)
		var reply ingestReply
		if code := post(t, ts.URL+"/v1/ingest?session="+id, body, &reply); code != http.StatusOK {
			t.Errorf("%s: ingest status %d, want 200", name, code)
			continue
		}
		if reply.Accepted != len(obs) {
			t.Errorf("%s: ingest accepted %d, obsfile.Read returned %d records", name, reply.Accepted, len(obs))
		}
		if code := post(t, ts.URL+"/v1/flush?session="+id, "", nil); code != http.StatusOK {
			t.Fatalf("%s: flush: status %d", name, code)
		}
		want, digest := referenceObs(t, obs)
		for _, view := range scenario.PartitionNames {
			checkView(t, ts.URL, id, view, want)
		}
		checkStats(t, ts.URL, id, digest)
	}
}
