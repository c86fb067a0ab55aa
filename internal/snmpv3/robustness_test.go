package snmpv3

import (
	"bytes"
	"testing"
	"testing/quick"

	"aliaslimit/internal/netsim"
)

// TestParseNeverPanics: BER decoders see attacker-controlled input.
func TestParseNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %x: %v", b, r)
			}
		}()
		_, _ = Parse(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// mutation is a valid discovery request with one byte flipped.
type mutation struct {
	pos   int
	delta byte
	msg   []byte
}

// discoveryMutations flips every byte of a valid discovery request by 1,
// 0x80 and 0xff in turn.
func discoveryMutations() []mutation {
	base := NewDiscoveryRequest(77, 88).Marshal()
	var out []mutation
	for pos := range base {
		for _, delta := range []byte{1, 0x80, 0xff} {
			mut := append([]byte(nil), base...)
			mut[pos] ^= delta
			out = append(out, mutation{pos, delta, mut})
		}
	}
	return out
}

// TestParseMutatedDiscovery mutates every byte of a valid discovery message.
func TestParseMutatedDiscovery(t *testing.T) {
	for _, m := range discoveryMutations() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse panicked with byte %d ^= %#x: %v", m.pos, m.delta, r)
				}
			}()
			_, _ = Parse(m.msg)
		}()
	}
}

// FuzzParse feeds arbitrary datagrams to Parse and to an agent, seeded with
// a discovery request, the agent's Report reply and every byte mutation
// TestParseMutatedDiscovery makes. Neither may panic. A message Parse
// accepts must re-encode with Marshal to bytes Parse accepts and that
// re-encode to themselves. A reply the agent sends must parse as a Report
// carrying the agent's engine ID and the request's msgID.
func FuzzParse(f *testing.F) {
	engineID := NewEngineID(9, 0x1234)
	agent := NewAgent(AgentConfig{EngineID: engineID, EngineBoots: 3})
	req := NewDiscoveryRequest(77, 88).Marshal()
	f.Add(req)
	f.Add(agent.Handle(req, netsim.ServeContext{}))
	for _, m := range discoveryMutations() {
		f.Add(m.msg)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Parse(in)
		if err == nil {
			enc := m.Marshal()
			again, err := Parse(enc)
			if err != nil {
				t.Fatalf("re-encoding %x of an accepted message does not parse: %v", enc, err)
			}
			if enc2 := again.Marshal(); !bytes.Equal(enc2, enc) {
				t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, enc2)
			}
		}
		reply := agent.Handle(in, netsim.ServeContext{})
		if reply == nil {
			return
		}
		if m == nil {
			t.Fatalf("agent answered %x, which Parse refuses", in)
		}
		r, err := Parse(reply)
		if err != nil {
			t.Fatalf("agent reply %x does not parse: %v", reply, err)
		}
		if !r.IsReport() || !bytes.Equal(r.EngineID, engineID) || r.MsgID != m.MsgID {
			t.Fatalf("agent reply is PDU %#x from engine %x for msgID %d; want a Report from %x for %d",
				r.PDUType, r.EngineID, r.MsgID, engineID, m.MsgID)
		}
	})
}

// TestAgentNeverPanics: the agent handles raw datagrams from the fabric.
func TestAgentNeverPanics(t *testing.T) {
	agent := NewAgent(AgentConfig{EngineID: NewEngineID(1, 1)})
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("agent panicked on %x: %v", b, r)
			}
		}()
		_ = agent.Handle(b, netsim.ServeContext{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestTruncatedDiscovery truncates the discovery probe at every offset.
func TestTruncatedDiscovery(t *testing.T) {
	base := NewDiscoveryRequest(1, 2).Marshal()
	for n := 0; n < len(base); n++ {
		if _, err := Parse(base[:n]); err == nil {
			t.Errorf("truncation at %d parsed successfully", n)
		}
	}
}

// incompleteUSM is a discovery request whose USM sequence stops after the
// user name, without the authentication and privacy parameters, and whose
// one varbind carries valLen zero bytes.
func incompleteUSM(valLen int) []byte {
	usm := appendTLV(nil, tagOctetString, nil)
	usm = appendInt(usm, tagInteger, 0)
	usm = appendInt(usm, tagInteger, 0)
	usm = appendTLV(usm, tagOctetString, nil)
	vb := appendTLV(appendOID(nil, OIDUsmStatsUnknownEngineIDs), tagOctetString, make([]byte, valLen))
	pdu := appendInt(appendInt(appendInt(nil, tagInteger, 88), tagInteger, 0), tagInteger, 0)
	pdu = appendTLV(pdu, tagSequence, appendTLV(nil, tagSequence, vb))
	scoped := appendTLV(appendTLV(nil, tagOctetString, nil), tagOctetString, nil)
	scoped = appendTLV(scoped, tagGetRequest, pdu)
	global := appendInt(appendInt(nil, tagInteger, 77), tagInteger, DefaultMaxSize)
	global = appendTLV(global, tagOctetString, []byte{FlagReportable})
	global = appendInt(global, tagInteger, SecurityModelUSM)
	body := appendInt(nil, tagInteger, Version3)
	body = appendTLV(body, tagSequence, global)
	body = appendTLV(body, tagOctetString, appendTLV(nil, tagSequence, usm))
	body = appendTLV(body, tagSequence, scoped)
	return appendTLV(nil, tagSequence, body)
}

// TestParseRefusesIncompleteUSM: a USM sequence without its authentication
// and privacy parameters is malformed. Near the 64 KiB length limit,
// accepting one let Marshal, which writes both, outgrow the limit and
// panic.
func TestParseRefusesIncompleteUSM(t *testing.T) {
	for _, n := range []int{0, 65454, 65457} {
		if _, err := Parse(incompleteUSM(n)); err == nil {
			t.Errorf("value of %d bytes: Parse accepted a USM without auth and priv parameters", n)
		}
	}
}
