package bgp

import (
	"errors"
	"io"
	"net"
	"slices"
	"time"
)

// ScanResult is what one passive BGP service scan of a single address yields.
type ScanResult struct {
	// Open is the unsolicited OPEN message, or nil if the speaker closed
	// without sending one (the paper's dominant silent-close population).
	Open *Open
	// OpenLen is the wire length of the OPEN message including header. The
	// paper's identifier includes the Length field, so it is recorded here
	// rather than recomputed.
	OpenLen uint16
	// Notification is the NOTIFICATION that followed the OPEN, if any.
	Notification *Notification
	// SilentClose records that the speaker completed the handshake and then
	// closed without data.
	SilentClose bool
}

// Identifiable reports whether the scan yielded enough material for the
// paper's BGP identifier (i.e. an OPEN message was captured).
func (r *ScanResult) Identifiable() bool { return r != nil && r.Open != nil }

// DefaultWaitTimeout matches the paper's methodology: "we simply close the
// connection after 2 seconds timeout, or after receiving any data".
const DefaultWaitTimeout = 2 * time.Second

// Scan performs the passive BGP service scan on an established connection:
// complete the TCP handshake (already done by the dialer), send nothing, wait
// up to timeout for data, parse whatever arrives, close. A timeout of zero
// uses DefaultWaitTimeout.
func Scan(conn net.Conn, timeout time.Duration) (*ScanResult, error) {
	if timeout <= 0 {
		timeout = DefaultWaitTimeout
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	_ = conn.SetReadDeadline(deadline)

	res := &ScanResult{}
	// Reads land in buf's spare capacity, which holds a whole message.
	buf := make([]byte, 0, MaxMessageLen)
	for {
		// Parse every complete message currently buffered.
		for {
			msg, n, err := Parse(buf)
			if errors.Is(err, ErrShortMessage) {
				break // need more bytes
			}
			if err != nil {
				return res, err
			}
			switch m := msg.(type) {
			case *Open:
				if res.Open == nil {
					res.Open = m
					res.OpenLen = uint16(n)
				}
			case *Notification:
				if res.Notification == nil {
					res.Notification = m
				}
			case Keepalive:
				// Recorded implicitly; a scanner has no use for it.
			}
			buf = buf[n:]
			// The paper closes after the OPEN/NOTIFICATION pair; once both
			// are in hand there is nothing more to learn.
			if res.Open != nil && res.Notification != nil {
				return res, nil
			}
		}
		if len(buf) == cap(buf) {
			// Parsed messages used up the spare room; move the unparsed
			// tail to a fresh buffer.
			buf = slices.Grow(buf, MaxMessageLen)
		}
		n, err := conn.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				if res.Open == nil && len(buf) == 0 {
					res.SilentClose = true
				}
				return res, nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Timed out waiting: treat like a silent peer.
				if res.Open == nil && len(buf) == 0 {
					res.SilentClose = true
				}
				return res, nil
			}
			return res, err
		}
	}
}
