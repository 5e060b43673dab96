package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"humancomp/internal/task"
)

// ErrTornRecord reports a v2 record stream that ended mid-record: the
// length prefix or payload was cut short. For a file this is the usual
// crash artifact; for a replication stream it means the connection dropped
// and the consumer should resume from the last good sequence.
var ErrTornRecord = errors.New("store: torn wal record")

// errCorruptRecord marks a record that framed but failed its length,
// checksum or decode check; replay drops it and everything behind it.
var errCorruptRecord = errors.New("corrupt wal record")

// errLegacyWAL refuses a v1 log (bare JSON lines, no header, no checksums).
// No such log exists outside old test fixtures; refusing it — rather than
// misreading its head as a damaged v2 record — keeps recovery from
// truncating a file it does not understand.
var errLegacyWAL = errors.New("store: wal is in the v1 JSON-line format, which is no longer read (want \"HCWL\" v2 records)")

// RecordScanner reads consecutive v2 WAL records from a stream, verifying
// each frame's checksum before surfacing it. An optional file header
// ("HCWL" magic) at the start is consumed transparently, so the scanner
// reads both whole WAL files and headerless record streams (the
// replication wire format). It is the one v2 decoder: replay is a loop over
// it. The scanner reports how the stream ended: Err returns nil after a
// clean end-of-stream, ErrTornRecord after a mid-record cut, and a
// descriptive error for a corrupt (checksum or decode failure) record or a
// v1 log. A decoded Event is the scanner's until the next Scan (see
// Event).
//
//	sc := store.NewRecordScanner(r, 0)
//	for sc.Scan() {
//		use(sc.Seq(), sc.Event(), sc.Frame())
//	}
//	if err := sc.Err(); err != nil { ... }
type RecordScanner struct {
	br      *bufio.Reader
	started bool
	seq     int64
	off     int64 // stream offset just past the current record
	read    int64 // bytes consumed from br, damaged ones included
	event   Event
	frame   []byte   // the current record; a prefix of buf
	buf     []byte   // every record is read into this one buffer
	box     eventBox // where a record's task, answer and gold answer are decoded
	err     error
	done    bool
}

// NewRecordScanner returns a scanner over r. Records are numbered from
// base+1: pass 0 for a whole file, or the from-1 cursor of a replication
// stream so Seq matches the leader's sequence numbers.
func NewRecordScanner(r io.Reader, base int64) *RecordScanner {
	return &RecordScanner{br: bufio.NewReaderSize(r, 64*1024), seq: base, buf: make([]byte, walRecordHint)}
}

// Scan advances to the next record. It returns false at the end of the
// stream — check Err to learn whether the end was clean.
func (sc *RecordScanner) Scan() bool {
	if sc.done {
		return false
	}
	if err := sc.next(); err != nil {
		sc.done = true
		if err != io.EOF {
			sc.err = err
		}
		return false
	}
	return true
}

// readFull fills p from the stream, counting what it consumed. A stream
// that ends inside p is torn; one that ends before it is io.EOF.
func (sc *RecordScanner) readFull(p []byte) error {
	n, err := io.ReadFull(sc.br, p)
	sc.read += int64(n)
	if err == io.ErrUnexpectedEOF {
		return ErrTornRecord
	}
	return err
}

// next decodes one record; io.EOF is the clean end of the stream.
func (sc *RecordScanner) next() error {
	if !sc.started {
		sc.started = true
		head, _ := sc.br.Peek(len(walMagic))
		switch {
		case bytes.Equal(head, walMagic[:]):
			sc.br.Discard(len(walMagic))
			sc.read, sc.off = int64(len(walMagic)), int64(len(walMagic))
		case len(head) > 0 && head[0] == '{' && (len(head) < 4 || binary.LittleEndian.Uint32(head) > maxWALRecord):
			// A JSON line, not a record whose length happens to start 0x7B.
			return errLegacyWAL
		}
	}
	hdr := sc.buf[:walRecordHeader]
	if err := sc.readFull(hdr); err != nil {
		return err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > maxWALRecord {
		return fmt.Errorf("store: record %d: implausible length %d: %w", sc.seq+1, length, errCorruptRecord)
	}
	if need := walRecordHeader + int(length); cap(sc.buf) < need {
		sc.buf = append(make([]byte, 0, max(need, 2*cap(sc.buf))), hdr...)
	}
	frame := sc.buf[:walRecordHeader+int(length)]
	payload := frame[walRecordHeader:]
	if err := sc.readFull(payload); err != nil {
		if err == io.EOF {
			err = ErrTornRecord
		}
		return err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return fmt.Errorf("store: record %d: checksum mismatch: %w", sc.seq+1, errCorruptRecord)
	}
	e, err := decodeEvent(payload, &sc.box)
	if errors.Is(err, task.ErrBadRedundancy) {
		// An intact record holding a task this version cannot store is
		// refused by name, never dropped as damage with what follows it.
		return fmt.Errorf("store: record %d: %w", sc.seq+1, err)
	}
	if err != nil {
		return fmt.Errorf("store: record %d: decode: %v: %w", sc.seq+1, err, errCorruptRecord)
	}
	sc.seq++
	sc.off = sc.read
	sc.event = e
	sc.frame = frame
	return nil
}

// Seq returns the sequence number of the current record.
func (sc *RecordScanner) Seq() int64 { return sc.seq }

// Offset returns the stream offset just past the current record (the file
// header included): the length of the prefix that has scanned clean.
func (sc *RecordScanner) Offset() int64 { return sc.off }

// Event returns the decoded current record. Its Task, Answer and Gold
// point into storage the next Scan overwrites, so a caller that keeps one
// copies it out — as the store does a submitted task, and Task.Record and
// every other consumer an answer, by taking it by value.
func (sc *RecordScanner) Event() Event { return sc.event }

// Frame returns the current record's verified bytes as they stand on the
// log (length prefix, checksum, payload). Every record is read into one
// buffer: the slice is valid until the next Scan.
func (sc *RecordScanner) Frame() []byte { return sc.frame }

// Err returns nil if the stream ended cleanly at a record boundary, and
// otherwise the reason scanning stopped.
func (sc *RecordScanner) Err() error { return sc.err }
