package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// docReader reads a JSON document from a stream one value at a time,
// holding a read-ahead buffer and one value's text, never the document. It
// is how a snapshot is restored without encoding/json between the file and
// the task codec. It frames and it checks the punctuation between values;
// the text of each value it hands on unvalidated — every value is decoded
// or checked by whoever receives it. In a valid document brackets outside
// strings balance, so counting them finds each value's true end; in an
// invalid one some value's text or some separator is wrong, and whoever
// meets it refuses the document. Either way accept and reject are
// json.Decoder's.
type docReader struct {
	r   io.Reader
	buf []byte // buf[pos:] is read but not consumed
	pos int
	err error // what ended the input, io.EOF included
}

// more reads further input behind the unconsumed bytes, moving them to the
// front of the buffer (and doubling it when one value fills it) to make
// room. It reports whether any arrived.
func (d *docReader) more() bool {
	if d.err != nil {
		return false
	}
	if d.pos > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.pos:])]
		d.pos = 0
	}
	if len(d.buf) == cap(d.buf) {
		d.buf = append(make([]byte, 0, 2*cap(d.buf)), d.buf...)
	}
	for range 100 { // bufio's bound on reads that return nothing
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		d.err = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	d.err = io.ErrNoProgress
	return false
}

// cut is the error for input that ends inside the document.
func (d *docReader) cut() error {
	if d.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.err
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *docReader) peek() (byte, error) {
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\r', '\n':
			default:
				return c, nil
			}
		}
		if !d.more() {
			return 0, d.cut()
		}
	}
}

// punct consumes the next non-space byte, which must be one of want, and
// returns it.
func (d *docReader) punct(want ...byte) (byte, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	for _, w := range want {
		if c == w {
			d.pos++
			return c, nil
		}
	}
	return 0, fmt.Errorf("invalid character %q, want %q", c, want)
}

// value consumes the next value and returns its text, valid until the next
// call: for an object or array everything to the matching close, for a
// string everything to the closing quote, otherwise everything up to the
// next separator.
func (d *docReader) value() ([]byte, error) {
	if _, err := d.peek(); err != nil {
		return nil, err
	}
	depth, inString := 0, false
	i := 0 // relative to d.pos, which more() moves
	for {
		for ; d.pos+i < len(d.buf); i++ {
			c := d.buf[d.pos+i]
			end := -1
			switch {
			case inString:
				if c == '\\' {
					i++
				} else if c == '"' {
					inString = false
					if depth == 0 {
						end = i + 1
					}
				}
			case c == '"':
				inString = true
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				if depth--; depth == 0 {
					end = i + 1
				} else if depth < 0 {
					end = i
				}
			case depth == 0 && (c == ',' || c == ':' || c == ' ' || c == '\t' || c == '\r' || c == '\n'):
				end = i
			}
			if end == 0 {
				return nil, fmt.Errorf("invalid character %q, want a value", c)
			}
			if end > 0 {
				raw := d.buf[d.pos : d.pos+end]
				d.pos += end
				return raw, nil
			}
		}
		if !d.more() {
			return nil, d.cut()
		}
	}
}

// list reads a bracketed, comma-separated sequence, calling item with d at
// the start of each element.
func (d *docReader) list(open, shut byte, item func() error) error {
	if _, err := d.punct(open); err != nil {
		return err
	}
	if c, err := d.peek(); err != nil {
		return err
	} else if c == shut {
		d.pos++
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if c, err := d.punct(',', shut); err != nil || c == shut {
			return err
		}
	}
}

// object reads an object, calling field once per member with its key — the
// key and its colon consumed, the value next in d and field's to consume.
func (d *docReader) object(field func(key string) error) error {
	return d.list('{', '}', func() error {
		if c, err := d.peek(); err != nil {
			return err
		} else if c != '"' {
			return fmt.Errorf("invalid character %q, want an object key", c)
		}
		raw, err := d.value()
		if err != nil {
			return err
		}
		var key string
		if err := json.Unmarshal(raw, &key); err != nil { // a few keys a document: encoding/json unquotes them
			return err
		}
		if _, err := d.punct(':'); err != nil {
			return err
		}
		return field(key)
	})
}

// array reads an array, calling elem with the text of each element; null
// reads as the empty array.
func (d *docReader) array(elem func(raw []byte) error) error {
	if c, err := d.peek(); err == nil && c != '[' {
		raw, err := d.value()
		if err != nil || string(raw) == "null" {
			return err
		}
		return errors.New("not an array")
	}
	return d.list('[', ']', func() error {
		raw, err := d.value()
		if err != nil {
			return err
		}
		return elem(raw)
	})
}
