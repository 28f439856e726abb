package snapcodec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"seda/internal/dewey"
)

// Magic identifies an engine snapshot stream.
const Magic = "SEDASNAP"

// Errors returned by readers. Decoders wrap these so callers can classify
// failures with errors.Is.
var (
	// ErrNotSnapshot reports a stream that does not start with Magic: an
	// unrelated file, not an engine snapshot.
	ErrNotSnapshot = errors.New("snapcodec: not an engine snapshot (bad magic)")
	// ErrVersion reports a container format version other than the one the
	// caller supports. Only one version is ever read; a file of any other
	// version is rebuilt from source, not migrated.
	ErrVersion = errors.New("snapcodec: unsupported snapshot format version (rebuild from source)")
	// ErrCorrupt reports a truncated stream, an invalid length, or a
	// checksum mismatch.
	ErrCorrupt = errors.New("snapcodec: corrupt snapshot")
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the container's CRC-32C (Castagnoli) of p — the same
// sum WriteContainer stores and ReadContainer verifies. Disk-backed shard
// residency re-verifies a section against its roster CRC on every whole
// re-read, and each run it reads against a checksum taken when the run
// was validated, so the checksum function itself is part of the wire
// contract.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// --- Writer ---

// Writer accumulates a section payload. The zero value is ready to use.
// Writes cannot fail (memory-backed), so encoding has no error paths; the
// container write at the end is the single fallible step.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a non-negative int as a uvarint. Negative values panic: they
// indicate a programming error in an encoder, not a data condition.
func (w *Writer) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("snapcodec: negative int %d", v))
	}
	w.Uvarint(uint64(v))
}

// Svarint appends a signed value in zig-zag varint form: small magnitudes
// of either sign stay short, which is what the delta-coded posting layout
// needs.
func (w *Writer) Svarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Raw appends b verbatim, with no framing. Used to splice an
// already-encoded block (a cold shard's lazy payload) into a section.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// F64 appends a float64 as 8 fixed big-endian bytes of its IEEE-754 bits.
func (w *Writer) F64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Dewey appends a Dewey identifier in its standard binary form.
func (w *Writer) Dewey(id dewey.ID) { w.buf = dewey.AppendBinary(w.buf, id) }

// --- Reader ---

// Reader consumes a section payload. All getters are error-sticky: after
// the first failure they return zero values, and Err reports the failure.
// Callers typically decode an entire structure and check Err once (plus
// any semantic validation).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint and reports it as an int, failing on overflow.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 { // no layer legitimately exceeds int32 counts
		r.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// Svarint reads a zig-zag signed varint.
func (r *Reader) Svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated svarint")
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count and validates it against the bytes that
// remain, assuming each element occupies at least elemMin bytes. This is
// the allocation guard: a hostile length can never make a decoder allocate
// more than O(remaining input).
func (r *Reader) Count(elemMin int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > r.Remaining()/elemMin+1 {
		r.fail("count %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return n
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean byte, failing on values other than 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err == nil && b > 1 {
		r.fail("invalid bool byte %d", b)
		return false
	}
	return b == 1
}

// F64 reads a fixed 8-byte float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Int()
	if r.err != nil {
		return ""
	}
	if n > r.Remaining() {
		r.fail("string length %d exceeds remaining %d bytes", n, r.Remaining())
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Tail returns the unread remainder of the payload without consuming it
// (nil after an error). Decoders that defer part of a payload — the lazy
// posting block of a shard section — capture it here and re-read it with a
// fresh Reader on first touch.
func (r *Reader) Tail() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:]
}

// Skip advances past n bytes, failing if fewer remain.
func (r *Reader) Skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || n > r.Remaining() {
		r.fail("skip %d exceeds remaining %d bytes", n, r.Remaining())
		return
	}
	r.off += n
}

// Dewey reads a Dewey identifier.
func (r *Reader) Dewey() dewey.ID {
	if r.err != nil {
		return nil
	}
	id, n, err := dewey.DecodeBinary(r.buf[r.off:])
	if err != nil {
		r.fail("bad dewey id: %v", err)
		return nil
	}
	r.off += n
	return id
}

// --- container ---

// Section is one named, checksummed payload of a snapshot container.
// ReadContainer and ScanSections additionally report where the payload
// sits in the container stream (Offset/Size) and its stored CRC, so a
// disk-backed loader can hand each index shard a backing ref and re-read
// the section later with pread.
type Section struct {
	Name    string
	Payload []byte // nil for ScanSections (header-only scan)
	// Offset is the payload's byte offset from the start of the
	// container stream; Size its length; CRC the stored CRC-32C.
	Offset int64
	Size   int
	CRC    uint32
}

// WriteContainer frames the sections and writes the whole container to w.
func WriteContainer(w io.Writer, formatVersion int, sections []Section) error {
	var hdr Writer
	hdr.buf = append(hdr.buf, Magic...)
	hdr.Int(formatVersion)
	hdr.Int(len(sections))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("snapcodec: writing header: %w", err)
	}
	for _, s := range sections {
		var sh Writer
		sh.String(s.Name)
		sh.Int(len(s.Payload))
		sh.buf = binary.BigEndian.AppendUint32(sh.buf, crc32.Checksum(s.Payload, castagnoli))
		if _, err := w.Write(sh.Bytes()); err != nil {
			return fmt.Errorf("snapcodec: writing section %q header: %w", s.Name, err)
		}
		if _, err := w.Write(s.Payload); err != nil {
			return fmt.Errorf("snapcodec: writing section %q: %w", s.Name, err)
		}
	}
	return nil
}

// ReadContainer parses a container from data, verifying the magic, that
// the format version is exactly version, and every section checksum.
func ReadContainer(data []byte, version int) ([]Section, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, ErrNotSnapshot
	}
	r := NewReader(data[len(Magic):])
	if v := r.Int(); r.Err() == nil && v != version {
		return nil, fmt.Errorf("%w: have %d, want %d", ErrVersion, v, version)
	}
	var sections []Section
	count := r.Count(6) // minimal section: 1-byte name len + 1-byte payload len + 4-byte crc
	for i := 0; i < count; i++ {
		name := r.String()
		plen := r.Int()
		if r.Err() != nil {
			break
		}
		if r.Remaining() < 4+plen {
			return nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrCorrupt, name, plen, r.Remaining()-4)
		}
		sum := binary.BigEndian.Uint32(r.buf[r.off:])
		r.off += 4
		off := int64(len(Magic) + r.off)
		payload := r.buf[r.off : r.off+plen]
		r.off += plen
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return nil, fmt.Errorf("%w: section %q checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, name, sum, got)
		}
		sections = append(sections, Section{Name: name, Payload: payload, Offset: off, Size: plen, CRC: sum})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("reading container: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, r.Remaining())
	}
	return sections, nil
}

// ScanSections reads only the container framing from rd — magic, version,
// and each section's name/length/CRC header, skipping every payload — and
// returns the roster with Offset/Size/CRC filled and Payload nil. It is
// the cheap path for re-binding disk-backed shard refs after a snapshot
// save: the CRCs live in the headers, so no payload is read or verified
// (a whole-section re-read verifies against the stored CRC anyway).
func ScanSections(rd io.Reader, version int) ([]Section, error) {
	br := bufio.NewReader(rd)
	off := int64(0)
	magic := make([]byte, len(Magic))
	if err := scanFull(br, magic); err != nil || string(magic) != Magic {
		return nil, ErrNotSnapshot
	}
	off += int64(len(Magic))
	readUvarint := func() (uint64, error) {
		v, n, err := scanUvarint(br)
		off += int64(n)
		return v, err
	}
	v, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated container version", ErrCorrupt)
	}
	if v != uint64(version) {
		return nil, fmt.Errorf("%w: have %d, want %d", ErrVersion, v, version)
	}
	var sections []Section
	count, err := readUvarint()
	if err != nil || count > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad section count", ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		nlen, err := readUvarint()
		if err != nil || nlen > 1<<10 {
			return nil, fmt.Errorf("%w: bad section name length", ErrCorrupt)
		}
		name := make([]byte, nlen)
		if err := scanFull(br, name); err != nil {
			return nil, fmt.Errorf("%w: truncated section name", ErrCorrupt)
		}
		off += int64(nlen)
		plen, err := readUvarint()
		if err != nil || plen > math.MaxInt32 {
			return nil, fmt.Errorf("%w: bad section %q payload length", ErrCorrupt, name)
		}
		var crcBuf [4]byte
		if err := scanFull(br, crcBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated section %q checksum", ErrCorrupt, name)
		}
		off += 4
		sections = append(sections, Section{
			Name:   string(name),
			Offset: off,
			Size:   int(plen),
			CRC:    binary.BigEndian.Uint32(crcBuf[:]),
		})
		if _, err := br.Discard(int(plen)); err != nil {
			return nil, fmt.Errorf("%w: section %q claims %d bytes past end", ErrCorrupt, name, plen)
		}
		off += int64(plen)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after last section", ErrCorrupt)
	}
	return sections, nil
}

// scanFull fills buf from br one error-checked byte at a time — the
// stream scanner's stand-in for the slice Reader's bounds checks (bufio
// makes the per-byte reads cheap).
func scanFull(br *bufio.Reader, buf []byte) error {
	for i := range buf {
		b, err := br.ReadByte()
		if err != nil {
			return err
		}
		buf[i] = b
	}
	return nil
}

// scanUvarint reads one unsigned varint from br, reporting the byte count
// consumed (bufio has no counting reader, and the scan needs offsets).
func scanUvarint(br *bufio.Reader) (v uint64, n int, err error) {
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 {
			return 0, n, fmt.Errorf("uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, n, nil
		}
		shift += 7
	}
}
