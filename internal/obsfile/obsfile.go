// Package obsfile serialises identifier observations as JSON lines — the
// interchange format between the collection tools (cmd/scan) and the
// analysis tools (cmd/resolve), mirroring the paper's split between
// measurement campaigns and offline analysis. One line per (address,
// protocol, identifier) fact:
//
//	{"addr":"1.0.0.7","proto":"SSH","digest":"ab12..."}
//
// Every reader of the format decodes through Decoder, which matches lines
// in that exact form byte for byte and hands any other form to
// encoding/json, with the same result either way.
package obsfile

import (
	"bufio"
	"bytes"
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
// a non-empty digest, in that order — and returns its observation. Decoder
// validates every record through it, whichever path decoded the record, and
// prefixes its error with the record's number.
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

// Read parses an obsfile stream back into observations through a Decoder.
// It fails on the first malformed record; the error reads
// "obsfile: line N: <cause>", with N counted as Decoder counts it.
func Read(r io.Reader) ([]alias.Observation, error) {
	dec := NewDecoder(r)
	var out []alias.Observation
	for {
		o, err := dec.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("obsfile: %w", err)
		}
		out = append(out, o)
	}
}

// MaxRecordBytes bounds the input one record may take, the whitespace before
// it included.
const MaxRecordBytes = 64 << 10

// ErrRecordTooLong is the cause Decode reports, after the "line N: " prefix,
// for a record longer than MaxRecordBytes.
var ErrRecordTooLong = fmt.Errorf("record longer than %d bytes", MaxRecordBytes)

// Decoder reads observations from an obsfile stream, one record per call.
// Every reader of the wire format (Read, the resolution daemon's ingest
// endpoint) decodes through it.
//
// A line in the canonical form, the form Write and json.Marshal(Record{...})
// emit, is decoded by matching its bytes directly:
//
//	{"addr":"A","proto":"P","digest":"D"}
//
// followed only by spaces, tabs or CR up to the newline or the end of input,
// where A, P and D are printable ASCII other than '"' and the backslash.
// Such a value's bytes are its decoded string, so the line yields the Record
// encoding/json would. Blank lines are skipped, as encoding/json skips
// whitespace. From the first line that is anything else (escapes, other key
// order or case, unknown fields, non-ASCII, a record spanning lines, two
// records on one line, a line longer than the 4 KiB read buffer), the rest
// of the stream goes through encoding/json, which then decodes it to the
// end. Either way each record is checked by Parse, so every stream decodes
// to the same observations and errors it would if encoding/json read all of
// it.
//
// Each record, counted with the whitespace and blank lines before it, may
// take at most MaxRecordBytes bytes of input: the decoder never reads further
// than that past the end of the previous record, and fails with
// ErrRecordTooLong instead. A canonical line is bounded by the read buffer
// anyway; the bound keeps encoding/json from buffering a record of any
// length.
type Decoder struct {
	br *bufio.Reader
	// js decodes the stream from its first non-canonical line on, reading it
	// through lim; both nil until then, and never reset.
	js  *json.Decoder
	lim *recordLimit
	// gap counts the bytes the canonical path has read since the end of the
	// last record: trailing whitespace and blank lines, which count toward
	// the next record's length.
	gap int
	// records counts the records decoded so far.
	records int
}

// NewDecoder returns a Decoder reading r through a default-sized
// bufio.Reader.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// Decode returns the next observation, or io.EOF after the last one. Any
// other error reads "line N: <cause>", where N counts records, not physical
// lines, so blank lines and records spanning lines make the two differ: for
// input that is not a JSON record N is the number of records decoded so far
// plus one, and for a record Parse rejects it is that record's own number.
func (d *Decoder) Decode() (alias.Observation, error) {
	rec, err := d.next()
	if err == io.EOF {
		return alias.Observation{}, io.EOF
	}
	if err != nil {
		return alias.Observation{}, fmt.Errorf("line %d: %w", d.records+1, err)
	}
	d.records++
	o, err := Parse(rec)
	if err != nil {
		return alias.Observation{}, fmt.Errorf("line %d: %w", d.records, err)
	}
	return o, nil
}

// next returns the next record: from canonical lines while the stream has
// held only those, from encoding/json ever after.
func (d *Decoder) next() (Record, error) {
	for d.js == nil {
		line, err := d.br.ReadSlice('\n')
		if err == nil || err == io.EOF {
			body := bytes.TrimRight(line, jsonSpace)
			if len(body) == 0 {
				// Whitespace counts toward the next record. At the bound,
				// encoding/json would need a byte past it to find one.
				if d.gap += len(line); d.gap >= MaxRecordBytes {
					return Record{}, ErrRecordTooLong
				}
				if err != nil {
					return Record{}, err
				}
				continue
			}
			if rec, ok := canonical(body); ok {
				if d.gap+len(body) > MaxRecordBytes {
					return Record{}, ErrRecordTooLong
				}
				d.gap = len(line) - len(body)
				return rec, nil
			}
		}
		// The pending line is copied because the next read overwrites the
		// slice ReadSlice returned. The pending record began gap bytes
		// before it.
		d.lim = &recordLimit{
			r:   io.MultiReader(bytes.NewReader(bytes.Clone(line)), d.br),
			max: int64(MaxRecordBytes - d.gap),
		}
		d.js = json.NewDecoder(d.lim)
	}
	var rec Record
	err := d.js.Decode(&rec)
	d.lim.max = d.js.InputOffset() + MaxRecordBytes
	return rec, err
}

// recordLimit hands encoding/json the input only up to offset max, which the
// Decoder sets MaxRecordBytes past the end of the last record; a read at max
// fails with ErrRecordTooLong.
type recordLimit struct {
	r io.Reader
	// n counts the bytes handed out.
	n, max int64
}

func (l *recordLimit) Read(p []byte) (int, error) {
	if l.n >= l.max {
		return 0, ErrRecordTooLong
	}
	if room := l.max - l.n; int64(len(p)) > room {
		p = p[:room]
	}
	n, err := l.r.Read(p)
	l.n += int64(n)
	return n, err
}

// jsonSpace is the whitespace encoding/json skips between values.
const jsonSpace = " \t\r\n"

// canonical matches one line, its trailing whitespace trimmed, against the
// canonical form.
func canonical(line []byte) (Record, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"addr":"`))
	if !ok {
		return Record{}, false
	}
	var rec Record
	if rec.Addr, rest, ok = plainString(rest, `","proto":"`); !ok {
		return Record{}, false
	}
	if rec.Proto, rest, ok = plainString(rest, `","digest":"`); !ok {
		return Record{}, false
	}
	if rec.Digest, rest, ok = plainString(rest, `"}`); !ok || len(rest) != 0 {
		return Record{}, false
	}
	return rec, true
}

// plainString reads a JSON string body up to its closing quote, which must
// begin next, and returns the body and the bytes after next. It accepts only
// printable ASCII other than the backslash: the bytes that stand for
// themselves in a JSON string.
func plainString(b []byte, next string) (string, []byte, bool) {
	for i, c := range b {
		if c == '"' {
			after, ok := bytes.CutPrefix(b[i:], []byte(next))
			if !ok {
				return "", nil, false
			}
			return string(b[:i]), after, true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return "", nil, false
		}
	}
	return "", nil, false
}
