package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// client is one keep-alive HTTP/1.1 connection to the server. It
// writes each request into a reused buffer and reads the answer into
// another, so a request allocates next to nothing on the client side:
// the collector then runs about as often as in a boundsd of its own,
// paced by the server's garbage. (net/http's client allocates about as
// much per request as the handler does, which in one process doubled
// the collections and put the p99 on the knee of their stalls.)
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte // the last answer
}

// requestTimeout bounds one exchange, past the server's own 30 s
// budget, so a stuck server cannot hold a run past its time limit.
const requestTimeout = 60 * time.Second

func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.redial()
}

func (c *client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	return nil
}

func (c *client) close() error { return c.conn.Close() }

// do sends req and reads the whole answer into c.body. It returns the
// status code.
func (c *client) do(req Request) (int, error) {
	b := append(c.wbuf[:0], req.Method...)
	b = append(b, ' ')
	b = append(b, req.Target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\n"...)
	if req.Accept != "" {
		b = append(b, "Accept: "...)
		b = append(b, req.Accept...)
		b = append(b, "\r\n"...)
	}
	if req.Body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.Body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, req.Body...)
	c.wbuf = b
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.conn.Write(b); err != nil {
		return 0, err
	}
	code, keep, err := c.readResponse()
	if err == nil && !keep {
		err = c.redial()
	}
	return code, err
}

func (c *client) exchange(req Request) (int, []byte, error) {
	code, err := c.do(req)
	return code, c.body, err
}

var errMalformed = errors.New("malformed HTTP response")

// line reads one CRLF-terminated line without its terminator. The
// slice is valid until the next read.
func (c *client) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// readResponse reads a status line, headers and a body framed by
// Content-Length or chunked transfer coding (what net/http's server
// writes on a keep-alive connection).
func (c *client) readResponse() (code int, keep bool, err error) {
	status, err := c.line()
	if err != nil {
		return 0, false, err
	}
	if len(status) < 12 || !bytes.HasPrefix(status, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("%w: status line %q", errMalformed, status)
	}
	if code, err = strconv.Atoi(string(status[9:12])); err != nil {
		return 0, false, fmt.Errorf("%w: status line %q", errMalformed, status)
	}
	length, chunked, keep := -1, false, true
	for {
		h, err := c.line()
		if err != nil {
			return 0, false, err
		}
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, false, fmt.Errorf("%w: header %q", errMalformed, h)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return 0, false, fmt.Errorf("%w: Content-Length %q", errMalformed, value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			l, err := c.line()
			if err != nil {
				return 0, false, err
			}
			size, _, _ := bytes.Cut(l, []byte(";"))
			n, err := strconv.ParseInt(string(size), 16, 32)
			if err != nil || n < 0 {
				return 0, false, fmt.Errorf("%w: chunk size %q", errMalformed, l)
			}
			if n == 0 {
				break
			}
			if err := c.readBody(int(n)); err != nil {
				return 0, false, err
			}
			if l, err := c.line(); err != nil || len(l) != 0 {
				return 0, false, fmt.Errorf("%w: no CRLF after a chunk", errMalformed)
			}
		}
		for { // trailer
			l, err := c.line()
			if err != nil {
				return 0, false, err
			}
			if len(l) == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, false, err
		}
	default:
		return 0, false, fmt.Errorf("%w: neither Content-Length nor chunked", errMalformed)
	}
	return code, keep, nil
}

// readBody appends the next n bytes of the stream to c.body.
func (c *client) readBody(n int) error {
	c.body = slices.Grow(c.body, n)
	start := len(c.body)
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}
