// Package seqlog is the line framing of the repo's append-only NDJSON
// log, the delta mutation log (the database's write-ahead log; a
// database dump is a log prefix in the same format). It is a package of
// its own so the frame format stays behind one small surface that
// FuzzOpen can target. A line is one JSON object whose last two fields
// are the frame:
//
//	{...payload fields...,"seq":17,"crc":2868410931}
//
// seq numbers the lines of a log 1, 2, 3, …; crc is the
// CRC32-Castagnoli of the line with the crc field absent, so it covers
// the payload and the sequence number. Together they make the two
// failures a line-oriented log cannot otherwise see detectable: a
// damaged byte inside a line that still parses, and a line that went
// missing.
package seqlog

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)
	seqKey   = []byte(`,"seq":`)
	crcKey   = []byte(`,"crc":`)
)

// Seal frames obj — one marshalled, non-empty JSON object — as a log
// line without the trailing newline: the frame is spliced in before the
// closing brace, so a reader verifies the bytes as written, without
// re-marshalling.
func Seal(obj []byte, seq int64) []byte {
	line := make([]byte, 0, len(obj)+len(seqKey)+len(crcKey)+32)
	line = append(line, obj[:len(obj)-1]...) // up to but excluding the final '}'
	line = append(line, seqKey...)
	line = strconv.AppendInt(line, seq, 10)
	sum := crc32.Update(crc32.Checksum(line, crcTable), crcTable, []byte{'}'})
	line = append(line, crcKey...)
	line = strconv.AppendUint(line, uint64(sum), 10)
	return append(line, '}')
}

// Open verifies one line (no trailing newline) and returns the object
// Seal was given and its sequence number. The frame is located
// positionally: it is always last, and inside a JSON string its quotes
// would be escaped, so the last occurrence of each key is the real one.
// A line without a frame is an error, never guessed at.
func Open(line []byte) (obj []byte, seq int64, err error) {
	i := bytes.LastIndex(line, crcKey)
	if i < 0 || line[len(line)-1] != '}' {
		return nil, 0, fmt.Errorf("seqlog: line has no crc field")
	}
	want, err := strconv.ParseUint(string(line[i+len(crcKey):len(line)-1]), 10, 32)
	if err != nil {
		return nil, 0, fmt.Errorf("seqlog: malformed crc field: %v", err)
	}
	j := bytes.LastIndex(line[:i], seqKey)
	if j < 0 {
		return nil, 0, fmt.Errorf("seqlog: line has no seq field")
	}
	if seq, err = strconv.ParseInt(string(line[j+len(seqKey):i]), 10, 64); err != nil || seq < 1 {
		return nil, 0, fmt.Errorf("seqlog: malformed seq field %q", line[j+len(seqKey):i])
	}
	got := crc32.Update(crc32.Checksum(line[:i], crcTable), crcTable, []byte{'}'})
	if got != uint32(want) {
		return nil, 0, fmt.Errorf("seqlog: crc mismatch (line says %08x, bytes give %08x)", uint32(want), got)
	}
	obj = make([]byte, 0, j+1)
	obj = append(obj, line[:j]...)
	return append(obj, '}'), seq, nil
}

// Scan reads the lines of r in order and hands each verified object to
// fn. A final line without a newline is the torn tail of a crashed
// writer: it never committed and is dropped silently. Every complete
// line must verify and must carry the sequence number after its
// predecessor's — last is the sequence number that precedes the stream,
// 0 when unknown (a tailed log need not start at 1) —
// otherwise Scan stops with an error naming the line: unlike a torn
// tail, a bad checksum or a gap means damage, not a crash. Scan returns
// the last sequence number it accepted and how many bytes of r the
// accepted lines span, so a tailing reader can resume after them.
func Scan(r io.Reader, last int64, fn func(obj []byte, seq int64) error) (seq, n int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return last, n, nil
		}
		if err != nil {
			return last, n, err
		}
		obj, seq, err := Open(line[:len(line)-1])
		if err != nil {
			return last, n, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if last != 0 && seq != last+1 {
			return last, n, fmt.Errorf("line %d: seqlog: sequence %d does not follow %d (a line is missing, repeated or out of order)", lineNo, seq, last)
		}
		if err := fn(obj, seq); err != nil {
			return last, n, fmt.Errorf("line %d: %w", lineNo, err)
		}
		last, n = seq, n+int64(len(line))
	}
}

// Resume prepares an existing log file for appending: it truncates a
// torn final line (a crashed writer's half-append) so new lines start
// at a line boundary, and returns the sequence number of the last
// complete line — the one to continue from, 0 for an empty log — with
// the file's usable size. That line must verify: appending behind a
// line no reader accepts (damage, or a file written before lines were
// framed) would only bury new lines, so Resume refuses and the file has
// to be moved away. Only a bounded tail window is read, so reopening a
// large log stays cheap.
func Resume(f *os.File) (seq, size int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size = info.Size()
	const window = 1 << 20
	off := max(size-window, 0)
	buf := make([]byte, size-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return 0, size, err
	}
	end := bytes.LastIndexByte(buf, '\n')
	if end < 0 {
		if off > 0 {
			// A torn line longer than the window: leave the file alone and
			// keep appending (pathological; a reader will stop at the tear).
			return 0, size, nil
		}
		// Entirely torn (or empty): start the file over.
		return 0, 0, f.Truncate(0)
	}
	if keep := off + int64(end) + 1; keep < size {
		if err := f.Truncate(keep); err != nil {
			return 0, size, err
		}
		size = keep
	}
	start := bytes.LastIndexByte(buf[:end], '\n') + 1
	if _, seq, err = Open(buf[start:end]); err != nil {
		return 0, size, fmt.Errorf("last complete line does not verify (%w); move the file away to start a new log", err)
	}
	return seq, size, nil
}
