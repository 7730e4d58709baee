package flatidx

import (
	"bytes"
	"errors"
	"testing"
	"testing/iotest"
)

func buildPayload(t *testing.T) []byte {
	t.Helper()
	w := NewWriter(KindTwoD)
	w.Float64s(1, []float64{0.25, 0.5, 0.75})
	w.Int64s(2, []int64{-7, 42})
	w.Uint8s(3, []uint8{1, 0, 1, 1, 0})
	w.Float64s(4, nil)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := buildPayload(t)
	r, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if r.EngineKind() != KindTwoD || r.Sections() != 4 {
		t.Fatalf("kind %d sections %d", r.EngineKind(), r.Sections())
	}
	f, err := r.Float64s(1)
	if err != nil || len(f) != 3 || f[0] != 0.25 || f[2] != 0.75 {
		t.Fatalf("Float64s: %v %v", f, err)
	}
	i, err := r.Int64s(2)
	if err != nil || len(i) != 2 || i[0] != -7 || i[1] != 42 {
		t.Fatalf("Int64s: %v %v", i, err)
	}
	u, err := r.Uint8s(3)
	if err != nil || len(u) != 5 || u[3] != 1 {
		t.Fatalf("Uint8s: %v %v", u, err)
	}
	empty, err := r.Float64s(4)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty section: %v %v", empty, err)
	}
	if _, err := r.Float64s(99); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section: %v", err)
	}
	if _, err := r.Int64s(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong width: %v", err)
	}
}

// Every single-byte truncation and every single-byte flip of a valid payload
// must fail with ErrCorrupt, through Read and through Parse — never panic,
// never succeed with damaged slabs.
func TestHostileStreams(t *testing.T) {
	good := buildPayload(t)
	tableEnd := headerSize + 4*entrySize
	for name, decode := range map[string]func([]byte) (*Reader, error){
		"Read":  func(b []byte) (*Reader, error) { return Read(bytes.NewReader(b)) },
		"Parse": Parse,
	} {
		for cut := 0; cut < len(good); cut++ {
			if _, err := decode(good[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation at %d: got %v, want ErrCorrupt", name, cut, err)
			}
		}
		for i := 0; i < len(good); i++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0xff
			if _, err := decode(bad); err == nil {
				// The only flips that may pass the byte-level checks are the
				// payload kind and the section kind tags, which the decoders
				// above this layer check. Any flipped slab byte, any table
				// byte that feeds lengths, widths or checksums, and any
				// reserved or padding byte must be caught right here.
				switch {
				case i >= 12 && i < 16: // payload kind
				case i >= headerSize && i < tableEnd && (i-headerSize)%entrySize < 4: // section kind tag
				default:
					t.Fatalf("%s: flip at byte %d went undetected", name, i)
				}
			}
		}
	}
}

// Parse takes exactly one payload: a trailing byte is damage, not slack. A
// misaligned buffer decodes to the same slabs as an aligned one.
func TestParse(t *testing.T) {
	good := buildPayload(t)
	if _, err := Parse(append(append([]byte(nil), good...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
	shifted := make([]byte, len(good)+1)
	copy(shifted[1:], good)
	for _, b := range [][]byte{good, shifted[1:]} {
		r, err := Parse(b)
		if err != nil {
			t.Fatal(err)
		}
		f, err := r.Float64s(1)
		if err != nil || len(f) != 3 || f[1] != 0.5 {
			t.Fatalf("Float64s: %v %v", f, err)
		}
		i, err := r.Int64s(2)
		if err != nil || len(i) != 2 || i[0] != -7 {
			t.Fatalf("Int64s: %v %v", i, err)
		}
	}
}

func TestWrongSectionCount(t *testing.T) {
	good := buildPayload(t)
	bad := append([]byte(nil), good...)
	bad[16] = 200 // claim 200 sections; the table bytes are not there
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong section count: %v", err)
	}
	bad[16], bad[17] = 0xff, 0xff // absurd count fails the bound cheaply
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge section count: %v", err)
	}
}

func TestCompletePrefix(t *testing.T) {
	good := buildPayload(t)
	if got := CompletePrefix(good); got != len(good) {
		t.Fatalf("full payload: %d, want %d", got, len(good))
	}
	if got := CompletePrefix(good[:10]); got != 0 {
		t.Fatalf("short prefix: %d, want 0", got)
	}
	tableEnd := headerSize + 4*entrySize
	// Mid-section cut resumes at the previous boundary.
	cut := tableEnd + 3*8 + 4 // inside section 2's slab
	got := CompletePrefix(good[:cut])
	if got != tableEnd+3*8 {
		t.Fatalf("mid-section cut: %d, want %d", got, tableEnd+3*8)
	}
	// A resumed stream stitches back to the identical bytes.
	stitched := append(append([]byte(nil), good[:got]...), good[got:]...)
	if !bytes.Equal(stitched, good) {
		t.Fatal("stitched stream differs")
	}
	if _, err := Read(bytes.NewReader(stitched)); err != nil {
		t.Fatalf("stitched stream: %v", err)
	}
}

func TestReaderAgainstSlowReader(t *testing.T) {
	// One-byte-at-a-time reads must decode identically (handoff streams
	// arrive in arbitrary chunks).
	good := buildPayload(t)
	r, err := Read(iotest.OneByteReader(bytes.NewReader(good)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.Float64s(1)
	if err != nil || f[1] != 0.5 {
		t.Fatalf("slow reader: %v %v", f, err)
	}
}
