package nbd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Client is a minimal fixed-newstyle NBD client, used by tests, examples and
// the end-to-end benchmark to drive the server the way a hypervisor would:
// one request in flight. Each request leaves in one write (header and write
// payload vectored), replies arrive through one small buffered reader, and a
// read's payload lands in the caller's buffer — the steady state allocates
// nothing.
// Once the reply stream cannot be trusted the client is broken for good.
type Client struct {
	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	size     int64
	readOnly bool
	handle   uint64
	broken   error // sticky: closed, transport error or malformed reply

	// Request scratch, guarded by mu (fields so nothing escapes per call).
	hdr [28]byte
	arr [2][]byte
	wip net.Buffers
}

// clientBufSize holds a reply header plus a 4 KiB read payload, so a small
// read is one receive; a longer payload's remainder bypasses the buffer and
// is received straight into the caller's.
const clientBufSize = 16 + 4<<10

// clientErrs maps NBD error numbers to errors.
var clientErrs = map[uint32]error{
	nbdEPERM:  errors.New("nbd: permission denied"),
	nbdEIO:    errors.New("nbd: I/O error"),
	nbdEINVAL: errors.New("nbd: invalid request"),
}

func nbdError(code uint32) error {
	if code == 0 {
		return nil
	}
	if err, ok := clientErrs[code]; ok {
		return err
	}
	return fmt.Errorf("nbd: error %d", code)
}

// Dial connects to an NBD server and attaches the named export.
func Dial(addr, export string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, clientBufSize)}
	if err := c.handshake(export); err != nil {
		conn.Close() //nolint:errcheck
		return nil, err
	}
	return c, nil
}

func (c *Client) handshake(export string) error {
	be := binary.BigEndian
	var greet [18]byte
	if _, err := io.ReadFull(c.br, greet[:]); err != nil {
		return err
	}
	if be.Uint64(greet[0:]) != nbdMagic || be.Uint64(greet[8:]) != optMagic {
		return errors.New("nbd: bad server greeting")
	}
	serverFlags := be.Uint16(greet[16:])
	if serverFlags&flagFixedNewstyle == 0 {
		return errors.New("nbd: server is not fixed-newstyle")
	}
	// Client flags (echo NO_ZEROES so the export reply is compact) and
	// NBD_OPT_EXPORT_NAME, in one write.
	opt := make([]byte, 20+len(export))
	be.PutUint32(opt[0:], flagNoZeroes)
	be.PutUint64(opt[4:], optMagic)
	be.PutUint32(opt[12:], optExportName)
	be.PutUint32(opt[16:], uint32(len(export)))
	copy(opt[20:], export)
	if _, err := c.conn.Write(opt); err != nil {
		return err
	}
	var info [10]byte
	if _, err := io.ReadFull(c.br, info[:]); err != nil {
		return fmt.Errorf("nbd: export %q rejected: %w", export, err)
	}
	c.size = int64(be.Uint64(info[0:]))
	tflags := be.Uint16(info[8:])
	c.readOnly = tflags&transmissionFlagReadOnly != 0
	return nil
}

// Size reports the export's size.
func (c *Client) Size() int64 { return c.size }

// ReadOnly reports whether the export rejects writes.
func (c *Client) ReadOnly() bool { return c.readOnly }

// fail marks the client broken: the reply stream is lost or out of step, so
// every later call returns the same error instead of parsing leftovers.
func (c *Client) fail(err error) error {
	c.broken = fmt.Errorf("nbd: connection broken: %w", err)
	return c.broken
}

// roundTrip performs one synchronous command over len(p) bytes at off: p is
// the payload sent by a write and the buffer filled by a read.
func (c *Client) roundTrip(cmd uint16, off uint64, p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return c.broken
	}
	be := binary.BigEndian
	c.handle++
	be.PutUint32(c.hdr[0:], requestMagic)
	be.PutUint16(c.hdr[6:], cmd)
	be.PutUint64(c.hdr[8:], c.handle)
	be.PutUint64(c.hdr[16:], off)
	be.PutUint32(c.hdr[24:], uint32(len(p)))
	var err error
	if cmd == cmdWrite {
		c.arr[0], c.arr[1] = c.hdr[:], p
		c.wip = c.arr[:]
		_, err = c.wip.WriteTo(c.conn)
		c.arr[1] = nil // do not pin the caller's buffer
	} else {
		_, err = c.conn.Write(c.hdr[:])
	}
	if err != nil {
		return c.fail(err)
	}
	if cmd == cmdDisc {
		return nil // no reply for disconnect
	}
	rep, err := c.br.Peek(16)
	if err != nil {
		return c.fail(err)
	}
	magic, code, handle := be.Uint32(rep[0:]), be.Uint32(rep[4:]), be.Uint64(rep[8:])
	c.br.Discard(16) //nolint:errcheck // just peeked
	switch {
	case magic != simpleReplyMagic:
		return c.fail(errors.New("bad reply magic"))
	case handle != c.handle:
		return c.fail(errors.New("reply handle mismatch"))
	case code != 0:
		return nbdError(code) // the server's verdict; the stream is intact
	}
	if cmd == cmdRead {
		if _, err := io.ReadFull(c.br, p); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// span issues cmd over [off, off+len(p)) in requests the server accepts.
func (c *Client) span(cmd uint16, p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > c.size {
		return 0, errors.New("nbd: request out of range")
	}
	for n := 0; n < len(p); {
		chunk := p[n:min(len(p), n+maxRequestLen)]
		if err := c.roundTrip(cmd, uint64(off)+uint64(n), chunk); err != nil {
			return n, err
		}
		n += len(chunk)
	}
	return len(p), nil
}

// ReadAt implements io.ReaderAt against the export.
func (c *Client) ReadAt(p []byte, off int64) (int, error) { return c.span(cmdRead, p, off) }

// WriteAt implements io.WriterAt against the export.
func (c *Client) WriteAt(p []byte, off int64) (int, error) { return c.span(cmdWrite, p, off) }

// Sync issues NBD_CMD_FLUSH.
func (c *Client) Sync() error { return c.roundTrip(cmdFlush, 0, nil) }

// Close disconnects cleanly.
func (c *Client) Close() error {
	c.roundTrip(cmdDisc, 0, nil) //nolint:errcheck // best-effort goodbye
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken == nil {
		c.broken = errors.New("nbd: client closed")
	}
	return c.conn.Close()
}

// List queries the server's export names via NBD_OPT_LIST on a fresh
// connection.
func List(addr string) ([]string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close() //nolint:errcheck // read-only negotiation probe
	be := binary.BigEndian
	var greet [18]byte
	if _, err := io.ReadFull(conn, greet[:]); err != nil {
		return nil, err
	}
	var opt [20]byte // client flags + NBD_OPT_LIST, one write
	be.PutUint32(opt[0:], flagNoZeroes)
	be.PutUint64(opt[4:], optMagic)
	be.PutUint32(opt[12:], optList)
	if _, err := conn.Write(opt[:]); err != nil {
		return nil, err
	}
	var names []string
	for {
		var rep [20]byte
		if _, err := io.ReadFull(conn, rep[:]); err != nil {
			return nil, err
		}
		if be.Uint64(rep[0:]) != repMagic {
			return nil, errors.New("nbd: bad option reply magic")
		}
		typ := be.Uint32(rep[12:])
		length := be.Uint32(rep[16:])
		payload := make([]byte, length)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return nil, err
		}
		switch typ {
		case repServer:
			if length < 4 {
				return nil, errors.New("nbd: short list reply")
			}
			n := be.Uint32(payload)
			if int(n)+4 > len(payload) {
				return nil, errors.New("nbd: bad list reply")
			}
			names = append(names, string(payload[4:4+n]))
		case repAck:
			return names, nil
		default:
			return nil, fmt.Errorf("nbd: unexpected list reply type %#x", typ)
		}
	}
}
