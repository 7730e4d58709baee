// Package flatidx is the zero-copy flat payload format: a fixed-width
// header, a section table, and raw little-endian slabs (float64 / int64 /
// uint8) holding each engine's hot arrays, or a dataset's columns. Decoding
// does ONE read of the whole payload and reinterprets the slabs as slices in
// place — no per-element decode, so index activation cost is (almost)
// independent of index size, the same load-time-vs-query-time tradeoff the
// paper's offline index precomputation is built on. Every section carries a
// CRC32C, so a damaged or truncated stream is detected before any slab is
// trusted, and a broken transfer can resume at the last complete section
// boundary (CompletePrefix) instead of restarting.
//
// Layout (all integers little-endian, every section payload padded to an
// 8-byte boundary so slab reinterpretation stays aligned):
//
//	offset  size  field
//	0       8     magic "FRNKFLT1"
//	8       4     flat format version (currently 1)
//	12      4     payload kind (twod / exact / approx index, or dataset)
//	16      4     section count
//	20      4     reserved (0)
//	24      24×k  section table: kind, elem width, byte length, CRC32C, pad (0)
//	…       …     section payloads, in table order, 8-byte aligned (zero padding)
//
// The format is agnostic of what it carries: each engine package (and
// internal/dataset) defines its own section kinds and validates
// cross-section invariants after decoding. The reserved word, the table pads
// and the alignment padding must be zero, so every byte of a payload is
// checked by a checksum, a decoder, or this rule. The universal stream header
// of persist.go stays in front of an index payload.
package flatidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Magic identifies a flat index payload. It deliberately differs from the
// universal stream magic of persist.go: the outer header names the engine
// and dataset, this one names the payload encoding.
var Magic = [8]byte{'F', 'R', 'N', 'K', 'F', 'L', 'T', '1'}

// FormatVersion is the current flat payload layout version.
const FormatVersion = 1

// Payload kinds carried in the header: one per index engine, plus the
// dataset file of a data directory (internal/dataset).
const (
	KindTwoD    uint32 = 1
	KindExact   uint32 = 2
	KindApprox  uint32 = 3
	KindDataset uint32 = 4
)

// Element widths of the three slab types.
const (
	width64 = 8
	width8  = 1
)

// headerSize and entrySize are the fixed byte sizes of the payload header
// and of one section-table entry.
const (
	headerSize = 24
	entrySize  = 24
)

// maxSections bounds the section count a stream may claim, so a hostile
// header cannot force a huge table allocation before any checksum runs.
const maxSections = 4096

// crcTable is the Castagnoli (CRC32C) polynomial table, hardware-accelerated
// on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a flat payload that is damaged, truncated, or
// internally inconsistent. Every decode failure wraps it, so callers test
// one sentinel.
var ErrCorrupt = errors.New("flatidx: corrupt or truncated flat index payload")

// Corruptf builds an ErrCorrupt-wrapping error; engine decoders use it for
// their post-decode invariant checks so semantic damage (an out-of-range
// hyperplane reference, an unsorted interval) reports the same sentinel as
// byte-level damage.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// hostLittle reports whether this machine is little-endian — the fast path
// where slabs are reinterpreted in place. The big-endian fallback copies
// element by element, keeping the format portable.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pad8 returns n rounded up to the next multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// section is one slab staged for writing or decoded for reading.
type section struct {
	kind  uint32
	width uint32
	data  []byte // little-endian payload view (writer: may alias caller slices)
}

// f64Bytes reinterprets a float64 slice as its raw bytes (little-endian
// hosts only).
func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*width64)
}

func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*width64)
}

// encodeF64 is the big-endian-host fallback for f64Bytes: an explicit
// little-endian copy.
func encodeF64(v []float64) []byte {
	b := make([]byte, len(v)*width64)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*width64:], math.Float64bits(x))
	}
	return b
}

func encodeI64(v []int64) []byte {
	b := make([]byte, len(v)*width64)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*width64:], uint64(x))
	}
	return b
}

// Writer stages sections and serializes them with one table pass. Section
// payloads may alias the caller's live slices — nothing is copied on
// little-endian hosts until Flush streams the bytes out.
type Writer struct {
	kind uint32
	secs []section
}

// NewWriter starts a payload for the given engine kind.
func NewWriter(engineKind uint32) *Writer {
	return &Writer{kind: engineKind}
}

// Float64s appends a float64 slab section.
func (w *Writer) Float64s(kind uint32, v []float64) {
	var b []byte
	if hostLittle {
		b = f64Bytes(v)
	} else {
		b = encodeF64(v)
	}
	w.secs = append(w.secs, section{kind: kind, width: width64, data: b})
}

// Int64s appends an int64 slab section.
func (w *Writer) Int64s(kind uint32, v []int64) {
	var b []byte
	if hostLittle {
		b = i64Bytes(v)
	} else {
		b = encodeI64(v)
	}
	w.secs = append(w.secs, section{kind: kind, width: width64, data: b})
}

// Uint8s appends a byte slab section.
func (w *Writer) Uint8s(kind uint32, v []uint8) {
	w.secs = append(w.secs, section{kind: kind, width: width8, data: v})
}

// Flush writes the header, the section table (with per-section CRC32C
// checksums), and the padded payloads. The output is deterministic for the
// same staged sections, which is what lets a broken handoff stream resume
// against a fresh serialization of the same index.
func (w *Writer) Flush(out io.Writer) error {
	if len(w.secs) > maxSections {
		return fmt.Errorf("flatidx: %d sections exceed the format limit %d", len(w.secs), maxSections)
	}
	head := make([]byte, headerSize+len(w.secs)*entrySize)
	copy(head, Magic[:])
	le := binary.LittleEndian
	le.PutUint32(head[8:], FormatVersion)
	le.PutUint32(head[12:], w.kind)
	le.PutUint32(head[16:], uint32(len(w.secs)))
	for i, s := range w.secs {
		e := head[headerSize+i*entrySize:]
		le.PutUint32(e[0:], s.kind)
		le.PutUint32(e[4:], s.width)
		le.PutUint64(e[8:], uint64(len(s.data)))
		le.PutUint32(e[16:], crc32.Checksum(s.data, crcTable))
	}
	if _, err := out.Write(head); err != nil {
		return err
	}
	var padding [8]byte
	for _, s := range w.secs {
		if _, err := out.Write(s.data); err != nil {
			return err
		}
		if p := pad8(len(s.data)) - len(s.data); p > 0 {
			if _, err := out.Write(padding[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// tableEntry is one decoded section-table row plus its payload offset into
// the blob.
type tableEntry struct {
	kind   uint32
	width  uint32
	length uint64
	crc    uint32
	off    int
}

// parseTable decodes and validates the fixed header and section table,
// returning the entries (with blob offsets) and the total payload blob size.
// It never allocates proportionally to claimed lengths — only to the
// (bounded) section count — so hostile headers fail cheaply.
func parseTable(head []byte) (entries []tableEntry, kind uint32, blobLen int, err error) {
	le := binary.LittleEndian
	if [8]byte(head[:8]) != Magic {
		return nil, 0, 0, Corruptf("bad payload magic %q", head[:8])
	}
	if v := le.Uint32(head[8:]); v != FormatVersion {
		return nil, 0, 0, fmt.Errorf("flatidx: payload format version %d, want %d", v, FormatVersion)
	}
	if r := le.Uint32(head[20:]); r != 0 {
		return nil, 0, 0, Corruptf("reserved header word is %#x, want 0", r)
	}
	kind = le.Uint32(head[12:])
	count := le.Uint32(head[16:])
	if count > maxSections {
		return nil, 0, 0, Corruptf("section count %d exceeds limit %d", count, maxSections)
	}
	if len(head) < headerSize+int(count)*entrySize {
		return nil, 0, 0, Corruptf("truncated section table")
	}
	entries = make([]tableEntry, count)
	off := 0
	for i := range entries {
		e := head[headerSize+i*entrySize:]
		entries[i] = tableEntry{
			kind:   le.Uint32(e[0:]),
			width:  le.Uint32(e[4:]),
			length: le.Uint64(e[8:]),
			crc:    le.Uint32(e[16:]),
			off:    off,
		}
		if p := le.Uint32(e[20:]); p != 0 {
			return nil, 0, 0, Corruptf("section %d: table pad is %#x, want 0", i, p)
		}
		switch entries[i].width {
		case width64, width8:
		default:
			return nil, 0, 0, Corruptf("section %d: unknown element width %d", i, entries[i].width)
		}
		if entries[i].length > math.MaxInt32 {
			return nil, 0, 0, Corruptf("section %d: implausible length %d", i, entries[i].length)
		}
		if entries[i].width == width64 && entries[i].length%width64 != 0 {
			return nil, 0, 0, Corruptf("section %d: length %d not a multiple of 8", i, entries[i].length)
		}
		off += pad8(int(entries[i].length))
		if off < 0 || off > math.MaxInt32 {
			return nil, 0, 0, Corruptf("payload exceeds the format size limit")
		}
	}
	return entries, kind, off, nil
}

// Reader is a decoded payload: the blob plus the validated table. Slab
// accessors reinterpret in place (little-endian hosts), so returned slices
// alias the blob — engines may hand them straight to their index structs.
type Reader struct {
	kind    uint32
	entries []tableEntry
	blob    []byte
}

// Read consumes a flat payload from r: header, table, then the whole blob in
// one read, verifying every section checksum before returning. Any damage —
// truncation, flipped bytes, an inconsistent table — reports ErrCorrupt.
func Read(r io.Reader) (*Reader, error) {
	var fixed [headerSize]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, Corruptf("reading payload header: %v", err)
	}
	count := binary.LittleEndian.Uint32(fixed[16:])
	if count > maxSections {
		return nil, Corruptf("section count %d exceeds limit %d", count, maxSections)
	}
	head := make([]byte, headerSize+int(count)*entrySize)
	copy(head, fixed[:])
	if _, err := io.ReadFull(r, head[headerSize:]); err != nil {
		return nil, Corruptf("reading section table: %v", err)
	}
	entries, kind, blobLen, err := parseTable(head)
	if err != nil {
		return nil, err
	}
	// One read of the whole payload. Growth is bounded by bytes actually
	// received (io.Copy), so a hostile header claiming terabytes fails at
	// the real stream length instead of at a huge allocation.
	var buf bytes.Buffer
	buf.Grow(min(blobLen, 1<<20))
	n, err := io.Copy(&buf, io.LimitReader(r, int64(blobLen)))
	if err != nil {
		return nil, Corruptf("reading payload blob: %v", err)
	}
	if int(n) != blobLen {
		return nil, Corruptf("payload truncated: have %d of %d blob bytes", n, blobLen)
	}
	return verify(kind, entries, buf.Bytes())
}

// Parse decodes a flat payload held whole in memory, such as a file read
// with os.ReadFile, with the checks Read makes; b must hold exactly the
// payload, no more. The slabs alias b when it is 8-byte aligned, as every
// slice os.ReadFile returns is, and a private copy otherwise. Nothing is
// allocated in proportion to what the header claims, only to len(b).
func Parse(b []byte) (*Reader, error) {
	if len(b) < headerSize {
		return nil, Corruptf("payload of %d bytes has no header", len(b))
	}
	count := binary.LittleEndian.Uint32(b[16:])
	if count > maxSections {
		return nil, Corruptf("section count %d exceeds limit %d", count, maxSections)
	}
	tableEnd := headerSize + int(count)*entrySize
	if len(b) < tableEnd {
		return nil, Corruptf("truncated section table")
	}
	entries, kind, blobLen, err := parseTable(b[:tableEnd])
	if err != nil {
		return nil, err
	}
	if have := len(b) - tableEnd; have != blobLen {
		return nil, Corruptf("payload holds %d blob bytes, its table describes %d", have, blobLen)
	}
	blob := b[tableEnd:]
	if uintptr(unsafe.Pointer(unsafe.SliceData(blob)))%width64 != 0 {
		blob = bytes.Clone(blob)
	}
	return verify(kind, entries, blob)
}

// verify checks every section's checksum and that the alignment padding
// after it is zero, and returns the Reader over blob.
func verify(kind uint32, entries []tableEntry, blob []byte) (*Reader, error) {
	for i, e := range entries {
		end := e.off + int(e.length)
		if got := crc32.Checksum(blob[e.off:end], crcTable); got != e.crc {
			return nil, Corruptf("section %d (kind %d): checksum mismatch (%#x != %#x)", i, e.kind, got, e.crc)
		}
		for _, p := range blob[end : e.off+pad8(int(e.length))] {
			if p != 0 {
				return nil, Corruptf("section %d (kind %d): nonzero alignment padding", i, e.kind)
			}
		}
	}
	return &Reader{kind: kind, entries: entries, blob: blob}, nil
}

// EngineKind returns the payload kind tag from the header.
func (r *Reader) EngineKind() uint32 { return r.kind }

// Sections returns how many sections the payload carries.
func (r *Reader) Sections() int { return len(r.entries) }

// find returns the first section of the given kind and element width.
func (r *Reader) find(kind, width uint32) ([]byte, error) {
	for _, e := range r.entries {
		if e.kind == kind {
			if e.width != width {
				return nil, Corruptf("section kind %d has element width %d, want %d", kind, e.width, width)
			}
			return r.blob[e.off : e.off+int(e.length)], nil
		}
	}
	return nil, Corruptf("missing section kind %d", kind)
}

// Float64s returns the float64 slab of the given section kind, aliasing the
// payload blob on little-endian hosts.
func (r *Reader) Float64s(kind uint32) ([]float64, error) {
	b, err := r.find(kind, width64)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittle {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/width64), nil
	}
	v := make([]float64, len(b)/width64)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*width64:]))
	}
	return v, nil
}

// Int64s returns the int64 slab of the given section kind.
func (r *Reader) Int64s(kind uint32) ([]int64, error) {
	b, err := r.find(kind, width64)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittle {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/width64), nil
	}
	v := make([]int64, len(b)/width64)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[i*width64:]))
	}
	return v, nil
}

// Uint8s returns the byte slab of the given section kind, aliasing the blob.
func (r *Reader) Uint8s(kind uint32) ([]uint8, error) {
	return r.find(kind, width8)
}

// CompletePrefix reports how many bytes of a partially received payload end
// exactly at a section boundary — the resume offset for a broken handoff
// stream. A prefix too short to hold the header and table (or with a table
// that does not parse) returns 0: restart from the beginning. The caller
// re-requests the stream from the returned offset and appends; the section
// checksums then vouch for the stitched result.
func CompletePrefix(payload []byte) int {
	if len(payload) < headerSize {
		return 0
	}
	count := binary.LittleEndian.Uint32(payload[16:])
	if count > maxSections {
		return 0
	}
	tableEnd := headerSize + int(count)*entrySize
	if len(payload) < tableEnd {
		return 0
	}
	entries, _, _, err := parseTable(payload[:tableEnd])
	if err != nil {
		return 0
	}
	complete := tableEnd
	for _, e := range entries {
		end := tableEnd + e.off + pad8(int(e.length))
		if end > len(payload) {
			break
		}
		complete = end
	}
	return complete
}
