// Package artifact is the checksummed section framing shared by the
// repo's fail-closed binary artifacts (the invertedE index, the graph
// file):
//
//	magic (4 bytes)
//	section … | CRC32-C of the section's bytes   (one or more)
//	footer magic (4 bytes), then EOF
//
// Sections are sequences of uvarints, varints, little-endian float64s
// and raw bytes; what they mean is the format's business. The framing's
// promise is the loader's: every byte is covered by a section checksum,
// truncation anywhere is reported as corruption (any flavour of EOF
// mid-artifact), bytes after the footer are corruption, and other I/O
// failures pass through unwrapped so callers can treat them as
// transient.
package artifact

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer emits one artifact, accumulating a per-section CRC32-C over
// everything written. Write errors are sticky in the underlying
// buffered writer and surface from Finish.
type Writer struct {
	bw  *bufio.Writer
	crc uint32
	// buf is the encode scratch: a local array would escape through
	// Bytes and cost an allocation per value.
	buf [binary.MaxVarintLen64]byte
}

// NewWriter starts an artifact on w with its 4-byte magic.
func NewWriter(w io.Writer, magic string) *Writer {
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString(magic)
	return &Writer{bw: bw}
}

// Bytes writes p raw.
func (w *Writer) Bytes(p []byte) {
	w.bw.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p)
}

func (w *Writer) Uvarint(v uint64) {
	w.Bytes(w.buf[:binary.PutUvarint(w.buf[:], v)])
}

func (w *Writer) Varint(v int64) {
	w.Bytes(w.buf[:binary.PutVarint(w.buf[:], v)])
}

func (w *Writer) Float(f float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(f))
	w.Bytes(w.buf[:8])
}

// EndSection emits the section's CRC (not itself checksummed) and
// resets the accumulator for the next section.
func (w *Writer) EndSection() {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w.crc)
	w.bw.Write(buf[:])
	w.crc = 0
}

// Finish writes the footer magic and flushes, returning the first error
// any write hit.
func (w *Writer) Finish(footer string) error {
	w.bw.WriteString(footer)
	return w.bw.Flush()
}

// Reader mirrors Writer: a CRC32-C accumulates over every byte the
// decoder consumes and is compared against the stored value at each
// section boundary. Its errors wrap the format's own corrupt-artifact
// sentinel.
type Reader struct {
	br      *bufio.Reader
	crc     uint32
	ioErr   error // first error br returned to ReadByte (a load stops at its first error)
	pkg     string
	corrupt error
	buf     [8]byte // decode scratch, for the reason Writer.buf exists
}

// NewReader starts reading an artifact from r and checks its magic. pkg
// prefixes pass-through I/O errors; corrupt is the sentinel every
// validation failure wraps.
func NewReader(r io.Reader, magic, pkg string, corrupt error) (*Reader, error) {
	c := &Reader{br: bufio.NewReaderSize(r, 1<<20), pkg: pkg, corrupt: corrupt}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(c.br, got); err != nil {
		return nil, c.readErr(err, "magic")
	}
	if string(got) != magic {
		return nil, c.Corruptf("bad magic %q", got)
	}
	return c, nil
}

// Corruptf builds an error wrapping the reader's corrupt sentinel.
func (c *Reader) Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", c.corrupt, fmt.Sprintf(format, args...))
}

// readErr classifies an I/O failure mid-load: any flavour of EOF means
// the artifact ended before its format said it would (truncation →
// corrupt); other errors (e.g. a device failure) pass through so
// callers can classify them as transient.
func (c *Reader) readErr(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return c.Corruptf("truncated while reading %s: %v", what, err)
	}
	return fmt.Errorf("%s: reading %s: %w", c.pkg, what, err)
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (c *Reader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		c.ioErr = err
		return b, err
	}
	c.buf[0] = b
	c.crc = crc32.Update(c.crc, castagnoli, c.buf[:1])
	return b, nil
}

// Bytes fills p with the next len(p) raw bytes.
func (c *Reader) Bytes(p []byte, what string) error {
	if _, err := io.ReadFull(c.br, p); err != nil {
		return c.readErr(err, what)
	}
	c.crc = crc32.Update(c.crc, castagnoli, p)
	return nil
}

func (c *Reader) Uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, c.varintErr(err, what)
	}
	return v, nil
}

func (c *Reader) Varint(what string) (int64, error) {
	v, err := binary.ReadVarint(c)
	if err != nil {
		return 0, c.varintErr(err, what)
	}
	return v, nil
}

// varintErr classifies a varint decode failure. When the underlying
// reader did not fail, the bytes themselves are not a varint (more than
// 64 bits): that is damage, not an I/O condition.
func (c *Reader) varintErr(err error, what string) error {
	if c.ioErr == nil {
		return c.Corruptf("malformed varint reading %s: %v", what, err)
	}
	return c.readErr(err, what)
}

func (c *Reader) Float(what string) (float64, error) {
	if err := c.Bytes(c.buf[:], what); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(c.buf[:])), nil
}

// EndSection reads the stored CRC (not fed to the accumulator),
// compares it against the computed one, and resets for the next
// section.
func (c *Reader) EndSection(name string) error {
	var buf [4]byte
	if _, err := io.ReadFull(c.br, buf[:]); err != nil {
		return c.readErr(err, name+" checksum")
	}
	stored := binary.LittleEndian.Uint32(buf[:])
	if stored != c.crc {
		return c.Corruptf("%s section checksum mismatch (stored %08x, computed %08x)", name, stored, c.crc)
	}
	c.crc = 0
	return nil
}

// Finish checks the footer magic and that the artifact ends exactly
// there: extra bytes mean a torn write or a concatenation bug.
func (c *Reader) Finish(footer string) error {
	got := make([]byte, len(footer))
	if _, err := io.ReadFull(c.br, got); err != nil {
		return c.readErr(err, "footer")
	}
	if string(got) != footer {
		return c.Corruptf("bad footer %q", got)
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		if err != nil {
			return c.readErr(err, "end of file")
		}
		return c.Corruptf("trailing garbage after footer")
	}
	return nil
}
