package fairrank

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Index persistence: every engine's offline phase can be saved with
// Designer.SaveIndex and restored with LoadDesigner. The stream is a single
// self-describing header shared by all engines — magic, format version,
// engine mode, dimensionality, item count, and a fingerprint of the dataset
// the index was built over — followed by the engine's own payload. The
// header is what lets a serving process (cmd/fairrankd) pick up whatever
// index files it finds in its data directory and refuse, with a precise
// error, the ones that do not match the data it is holding.

// indexMagic identifies a fairrank index stream; it doubles as a version
// gate for the header layout itself.
var indexMagic = [8]byte{'F', 'R', 'N', 'K', 'I', 'D', 'X', '1'}

// IndexFormatVersion is the current version of the universal index header.
// Engine payloads carry their own format versions on top of it.
const IndexFormatVersion = 1

// indexStreamHeaderLen is the byte length of the magic plus the universal
// header — where the engine payload starts in every index stream.
const indexStreamHeaderLen = 8 + 32

// indexHeader is the fixed-size universal header preceding every engine
// payload.
type indexHeader struct {
	Version     uint32
	Mode        uint32
	D           uint32
	Flags       uint32
	N           uint64
	Fingerprint uint64
}

// Header flag bits. flagRefineQueries is a query-time designer setting that
// must survive a save/load cycle for a loaded designer to answer
// identically; flagFlatPayload marks the flat columnar payload — set on
// every stream this build writes, absent on gob-payload streams from builds
// before the flat format, which LoadDesigner refuses (ErrLegacyIndex).
// flagRevision marks a stream carrying the designer's revision fingerprint
// (see Designer.Revision) as an 8-byte little-endian word between the header
// and the engine payload; absent on streams written before datasets became
// patchable, which load at the dataset's own fingerprint.
const (
	flagRefineQueries = 1 << 0
	flagFlatPayload   = 1 << 1
	flagRevision      = 1 << 2
)

// ErrCorruptIndex reports that a stream is not a fairrank index or was
// truncated or damaged before the engine payload.
var ErrCorruptIndex = errors.New("fairrank: corrupt or truncated index stream")

// ErrLegacyIndex reports an index stream whose engine payload is the gob
// encoding of builds before the flat format (header flag bit 1 clear). This
// build no longer decodes it: re-save the index with an older build that
// still reads gob and writes flat, or rebuild it (fairrankd does so on load).
var ErrLegacyIndex = errors.New("fairrank: index payload is in the retired gob format; re-save it with an older build")

// ErrDatasetMismatch reports that an index was built over a different
// dataset than the one supplied to LoadDesigner.
var ErrDatasetMismatch = errors.New("fairrank: index was built for a different dataset")

// writeIndexHeader writes the magic and the universal header.
func writeIndexHeader(w io.Writer, mode Mode, ds *Dataset, flags uint32) error {
	if _, err := w.Write(indexMagic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, indexHeader{
		Version:     IndexFormatVersion,
		Mode:        uint32(mode),
		D:           uint32(ds.D()),
		Flags:       flags,
		N:           uint64(ds.N()),
		Fingerprint: ds.Fingerprint(),
	})
}

// readIndexHeader reads and validates the magic and the universal header
// against the dataset the caller wants to serve.
func readIndexHeader(r io.Reader, ds *Dataset) (Mode, uint32, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	if magic != indexMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptIndex, magic[:])
	}
	var h indexHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	if h.Version != IndexFormatVersion {
		return 0, 0, fmt.Errorf("fairrank: index header version %d, want %d", h.Version, IndexFormatVersion)
	}
	mode := Mode(h.Mode)
	switch mode {
	case Mode2D, ModeExact, ModeApprox:
	default:
		return 0, 0, fmt.Errorf("%w: unknown engine mode %d", ErrCorruptIndex, h.Mode)
	}
	if int(h.D) != ds.D() || h.N != uint64(ds.N()) {
		return 0, 0, fmt.Errorf("%w: index is over n=%d, d=%d; dataset has n=%d, d=%d",
			ErrDatasetMismatch, h.N, h.D, ds.N(), ds.D())
	}
	if h.Fingerprint != ds.Fingerprint() {
		return 0, 0, fmt.Errorf("%w: dataset fingerprint %#x, index was built for %#x",
			ErrDatasetMismatch, ds.Fingerprint(), h.Fingerprint)
	}
	return mode, h.Flags, nil
}

// SaveIndex serializes the designer's preprocessed index so the offline
// phase can be paid once and reused across processes (see LoadDesigner).
// All three engines are supported; the stream starts with a universal header
// recording the engine mode and a fingerprint of the dataset, followed by
// the engine's own payload (Engine.Persist).
func (d *Designer) SaveIndex(w io.Writer) error {
	var flags uint32
	if d.refine {
		flags |= flagRefineQueries
	}
	flags |= flagFlatPayload | flagRevision
	if err := writeIndexHeader(w, d.mode, d.ds, flags); err != nil {
		return err
	}
	var rev [8]byte
	binary.LittleEndian.PutUint64(rev[:], d.revision)
	if _, err := w.Write(rev[:]); err != nil {
		return err
	}
	return d.eng.Persist(w)
}

// indexPayloadOffset returns the byte offset of the engine payload in an
// index stream: the fixed universal header plus the optional revision word.
// Streams too short or foreign report the fixed header length — callers only
// use the offset to align a resumable payload prefix, and the loader is the
// authority on validity.
func indexPayloadOffset(b []byte) int {
	off := indexStreamHeaderLen
	if len(b) >= indexStreamHeaderLen {
		var magic [8]byte
		copy(magic[:], b)
		if magic == indexMagic && binary.LittleEndian.Uint32(b[20:24])&flagRevision != 0 {
			off += 8
		}
	}
	return off
}

// LoadDesigner reconstructs a designer of any engine mode from a SaveIndex
// stream. ds and oracle must be the ones the index was built for: the
// header's dataset fingerprint is checked (ErrDatasetMismatch), damaged
// streams fail with ErrCorruptIndex or an engine decoding error, and
// gob-payload streams fail with ErrLegacyIndex. A loaded designer returns
// byte-identical Suggest answers to the designer that wrote the index.
func LoadDesigner(r io.Reader, ds *Dataset, oracle Oracle) (*Designer, error) {
	if ds == nil || oracle == nil {
		return nil, errors.New("fairrank: nil dataset or oracle")
	}
	mode, flags, err := readIndexHeader(r, ds)
	if err != nil {
		return nil, err
	}
	if flags&flagFlatPayload == 0 {
		return nil, ErrLegacyIndex
	}
	refine := flags&flagRefineQueries != 0
	revision := ds.Fingerprint()
	if flags&flagRevision != 0 {
		var rev [8]byte
		if _, err := io.ReadFull(r, rev[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
		}
		revision = binary.LittleEndian.Uint64(rev[:])
	}
	eng, err := loadEngine(mode, r, ds, oracle, refine)
	if err != nil {
		return nil, err
	}
	return &Designer{ds: ds, oracle: oracle, mode: mode, refine: refine, eng: eng, revision: revision}, nil
}
