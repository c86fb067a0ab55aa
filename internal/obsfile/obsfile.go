// Package obsfile serialises identifier observations as JSON lines — the
// interchange format between the collection tools (cmd/scan) and the
// analysis tools (cmd/resolve), mirroring the paper's split between
// measurement campaigns and offline analysis. One line per (address,
// protocol, identifier) fact:
//
//	{"addr":"1.0.0.7","proto":"SSH","digest":"ab12..."}
package obsfile

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Record is the wire schema of one observation line.
type Record struct {
	// Addr is the responsive address in netip.Addr string form.
	Addr string `json:"addr"`
	// Proto is the protocol name ("SSH", "BGP", "SNMPv3").
	Proto string `json:"proto"`
	// Digest is the identifier digest (hex SHA-256 of the canonical
	// preimage).
	Digest string `json:"digest"`
}

// Parse checks one decoded record — a valid address, a known protocol name,
// a non-empty digest, in that order — and returns its observation. Every
// reader of the wire format (Read, the resolution daemon's ingest endpoint)
// validates through it, so they accept and reject the same lines; callers
// prefix the error with the line number.
func Parse(rec Record) (alias.Observation, error) {
	addr, err := netip.ParseAddr(rec.Addr)
	if err != nil {
		return alias.Observation{}, err
	}
	proto, err := protoByName(rec.Proto)
	if err != nil {
		return alias.Observation{}, err
	}
	if rec.Digest == "" {
		return alias.Observation{}, errors.New("empty digest")
	}
	return alias.Observation{
		Addr: addr,
		ID:   ident.Identifier{Proto: proto, Digest: rec.Digest},
	}, nil
}

// protoByName maps wire names back to protocols.
func protoByName(name string) (ident.Protocol, error) {
	for _, p := range ident.Protocols {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// Write streams observations as JSONL.
func Write(w io.Writer, obs []alias.Observation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, o := range obs {
		rec := Record{Addr: o.Addr.String(), Proto: o.ID.Proto.String(), Digest: o.ID.Digest}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obsfile: encoding %s: %w", rec.Addr, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSONL stream back into observations. It fails on the first
// malformed line, reporting its number.
func Read(r io.Reader) ([]alias.Observation, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []alias.Observation
	line := 0
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obsfile: line %d: %w", line+1, err)
		}
		line++
		o, err := Parse(rec)
		if err != nil {
			return nil, fmt.Errorf("obsfile: line %d: %w", line, err)
		}
		out = append(out, o)
	}
}
