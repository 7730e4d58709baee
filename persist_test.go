package fairrank

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/datagen"
	"fairrank/internal/flatidx"
)

// roundtripFixture builds a designer in the given mode over a small dataset
// with a matching oracle, plus a set of probe queries.
func roundtripFixture(t testing.TB, mode Mode) (*Dataset, Oracle, *Designer, [][]float64) {
	t.Helper()
	var (
		ds  *Dataset
		err error
	)
	d2 := mode == Mode2D
	if d2 {
		ds, err = datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	} else {
		ds, err = datagen.Uniform(24, 3, 0.5, 11)
	}
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := MinShare(ds, "group", "protected", 0.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: mode, Seed: 3}
	if mode == ModeApprox {
		cfg.Cells = 400
		cfg.CellRegionCap = 64
	}
	d, err := NewDesigner(ds, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var queries [][]float64
	for q := 0; q < 12; q++ {
		w := make([]float64, ds.D())
		for k := range w {
			w[k] = r.Float64() + 0.01
		}
		queries = append(queries, w)
	}
	return ds, oracle, d, queries
}

// Every engine's index must roundtrip through SaveIndex/LoadDesigner with
// byte-identical Suggest answers.
func TestSaveLoadRoundtripAllModes(t *testing.T) {
	for _, mode := range []Mode{Mode2D, ModeExact, ModeApprox} {
		t.Run(mode.String(), func(t *testing.T) {
			ds, oracle, d, queries := roundtripFixture(t, mode)
			var buf bytes.Buffer
			if err := d.SaveIndex(&buf); err != nil {
				t.Fatalf("SaveIndex(%v): %v", mode, err)
			}
			loaded, err := LoadDesigner(bytes.NewReader(buf.Bytes()), ds, oracle)
			if err != nil {
				t.Fatalf("LoadDesigner(%v): %v", mode, err)
			}
			if loaded.Mode() != mode {
				t.Fatalf("loaded mode %v, want %v", loaded.Mode(), mode)
			}
			if loaded.Satisfiable() != d.Satisfiable() {
				t.Fatal("satisfiability changed by save/load")
			}
			for _, w := range queries {
				s1, err1 := d.Suggest(w)
				s2, err2 := loaded.Suggest(w)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("error mismatch for %v: %v vs %v", w, err1, err2)
				}
				if err1 != nil {
					if !errors.Is(err1, ErrUnsatisfiable) {
						t.Fatal(err1)
					}
					continue
				}
				if s1.Distance != s2.Distance || s1.AlreadyFair != s2.AlreadyFair {
					t.Fatalf("answer changed by save/load: %+v vs %+v", s1, s2)
				}
				for k := range s1.Weights {
					if s1.Weights[k] != s2.Weights[k] {
						t.Fatalf("weights not byte-identical: %v vs %v", s1.Weights, s2.Weights)
					}
				}
			}
		})
	}
}

func TestLoadDesignerCorruptStream(t *testing.T) {
	ds, oracle, d, _ := roundtripFixture(t, Mode2D)
	var buf bytes.Buffer
	if err := d.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Not an index at all.
	if _, err := LoadDesigner(bytes.NewReader([]byte("not an index stream")), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("garbage stream: got %v, want ErrCorruptIndex", err)
	}
	// Truncated inside the header.
	if _, err := LoadDesigner(bytes.NewReader(good[:10]), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("truncated header: got %v, want ErrCorruptIndex", err)
	}
	// Truncated inside the engine payload: the header parses, gob fails.
	if _, err := LoadDesigner(bytes.NewReader(good[:len(good)-7]), ds, oracle); err == nil {
		t.Error("truncated payload should fail to load")
	}
	// Flipped bytes in the engine payload.
	bad := append([]byte(nil), good...)
	for i := len(bad) - 20; i < len(bad)-12; i++ {
		bad[i] ^= 0xff
	}
	if _, err := LoadDesigner(bytes.NewReader(bad), ds, oracle); err == nil {
		t.Error("corrupted payload should fail to load")
	}
	// Empty stream.
	if _, err := LoadDesigner(bytes.NewReader(nil), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("empty stream: got %v, want ErrCorruptIndex", err)
	}
}

func TestLoadDesignerWrongDataset(t *testing.T) {
	ds, oracle, d, _ := roundtripFixture(t, Mode2D)
	var buf bytes.Buffer
	if err := d.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}

	// Same shape, different values: fingerprint must catch it.
	other, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDesigner(bytes.NewReader(buf.Bytes()), other, oracle); !errors.Is(err, ErrDatasetMismatch) {
		t.Errorf("different data: got %v, want ErrDatasetMismatch", err)
	}
	// Different shape: caught before the fingerprint.
	smaller, err := datagen.Biased(40, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDesigner(bytes.NewReader(buf.Bytes()), smaller, oracle); !errors.Is(err, ErrDatasetMismatch) {
		t.Errorf("different n: got %v, want ErrDatasetMismatch", err)
	}
	// The dataset it was built for still loads.
	if _, err := LoadDesigner(bytes.NewReader(buf.Bytes()), ds, oracle); err != nil {
		t.Errorf("original dataset should load: %v", err)
	}
}

// Query-time settings (RefineQueries) must survive the save/load cycle, or
// a restarted server answers with a different quality than the one that
// built the index.
func TestSaveLoadPreservesRefineQueries(t *testing.T) {
	ds, err := datagen.Uniform(24, 3, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := MinShare(ds, "group", "protected", 0.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesigner(ds, oracle, Config{
		Mode: ModeApprox, Cells: 400, Seed: 3, CellRegionCap: 64, RefineQueries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesigner(&buf, ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.refine {
		t.Fatal("RefineQueries lost in the save/load roundtrip")
	}
}

// suggestAll runs every probe query and returns the answers (nil entries for
// unsatisfiable ones), for comparing designers across save/load paths.
func suggestAll(t *testing.T, d *Designer, queries [][]float64) []*Suggestion {
	t.Helper()
	out := make([]*Suggestion, len(queries))
	for i, w := range queries {
		s, err := d.Suggest(w)
		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatal(err)
			}
			continue
		}
		out[i] = s
	}
	return out
}

func sameSuggestions(a, b []*Suggestion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		if a[i].Distance != b[i].Distance || a[i].AlreadyFair != b[i].AlreadyFair ||
			!reflect.DeepEqual(a[i].Weights, b[i].Weights) {
			return false
		}
	}
	return true
}

// clearFlatFlag clears the flat-payload flag (header bit 1) of an index
// stream in place, giving it the header every gob-payload store carries.
func clearFlatFlag(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[20:24], binary.LittleEndian.Uint32(b[20:24])&^flagFlatPayload)
	return b
}

// legacyStream returns d's index stream with the flat-payload flag cleared.
func legacyStream(t testing.TB, d *Designer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return clearFlatFlag(buf.Bytes())
}

// A stream whose header says its payload is not flat — a store written
// before the flat format — is refused with ErrLegacyIndex for every engine,
// never decoded as if it were flat.
func TestLoadDesignerRefusesLegacyPayload(t *testing.T) {
	for _, mode := range []Mode{Mode2D, ModeExact, ModeApprox} {
		t.Run(mode.String(), func(t *testing.T) {
			ds, oracle, d, _ := roundtripFixture(t, mode)
			d2, err := LoadDesigner(bytes.NewReader(legacyStream(t, d)), ds, oracle)
			if !errors.Is(err, ErrLegacyIndex) || d2 != nil {
				t.Fatalf("got (%v, %v), want ErrLegacyIndex", d2, err)
			}
		})
	}
}

// Hostile flat streams: every truncation and every damaged checksum must
// surface as ErrCorruptIndex — never a panic, never a silently wrong index.
func TestFlatHostileStreamsAllModes(t *testing.T) {
	for _, mode := range []Mode{Mode2D, ModeExact, ModeApprox} {
		t.Run(mode.String(), func(t *testing.T) {
			ds, oracle, d, _ := roundtripFixture(t, mode)
			var buf bytes.Buffer
			if err := d.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()

			// Truncations at every offset (strided for the bigger payloads).
			stride := 1
			if len(good) > 4096 {
				stride = 131
			}
			for cut := 0; cut < len(good); cut += stride {
				if _, err := LoadDesigner(bytes.NewReader(good[:cut]), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("truncation at %d/%d: got %v, want ErrCorruptIndex", cut, len(good), err)
				}
			}

			// Flip a byte inside every section checksum. Layout: universal
			// header (40 bytes) plus the 8-byte revision word, then the flat
			// header (24 bytes, section count at offset 16), then 24-byte
			// table entries with the CRC at entry offset 12.
			hdr := indexPayloadOffset(good)
			payload := good[hdr:]
			nSections := int(binary.LittleEndian.Uint32(payload[16:20]))
			if nSections == 0 {
				t.Fatal("fixture produced no sections")
			}
			for i := 0; i < nSections; i++ {
				bad := append([]byte(nil), good...)
				bad[hdr+24+i*24+12] ^= 0xff
				if _, err := LoadDesigner(bytes.NewReader(bad), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("flipped CRC of section %d: got %v, want ErrCorruptIndex", i, err)
				}
			}

			// Wrong section counts: one too many, absurdly many, zero.
			for _, count := range []uint32{uint32(nSections) + 1, 1 << 20, 0} {
				bad := append([]byte(nil), good...)
				binary.LittleEndian.PutUint32(bad[hdr+16:], count)
				if _, err := LoadDesigner(bytes.NewReader(bad), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("section count %d: got %v, want ErrCorruptIndex", count, err)
				}
			}

			// Flip every byte of the first slab's data (past the table): the
			// CRC must catch each one.
			dataStart := hdr + 24 + nSections*24
			end := min(dataStart+64, len(good))
			for i := dataStart; i < end; i++ {
				bad := append([]byte(nil), good...)
				bad[i] ^= 0xff
				if _, err := LoadDesigner(bytes.NewReader(bad), ds, oracle); !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("flipped slab byte %d: got %v, want ErrCorruptIndex", i, err)
				}
			}
		})
	}
}

// FuzzLoadDesigner drives arbitrary bytes through the full load path —
// universal header, flat section table, engine decode, structural
// validation. The invariant is simply: never panic, never hang; any return
// is either a working designer or an error.
func FuzzLoadDesigner(f *testing.F) {
	ds, oracle, exact, _ := roundtripFixture(f, ModeExact)
	_, _, approx, _ := roundtripFixture(f, ModeApprox)
	var exactFlat, approxFlat bytes.Buffer
	if err := exact.SaveIndex(&exactFlat); err != nil {
		f.Fatal(err)
	}
	if err := approx.SaveIndex(&approxFlat); err != nil {
		f.Fatal(err)
	}
	f.Add(exactFlat.Bytes())
	f.Add(legacyStream(f, exact))
	f.Add(approxFlat.Bytes())
	f.Add(exactFlat.Bytes()[:41])
	f.Add(exactFlat.Bytes()[:len(exactFlat.Bytes())-3])
	f.Add([]byte("FRNKIDX1 not really a header"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadDesigner(bytes.NewReader(data), ds, oracle)
		if err == nil && d == nil {
			t.Fatal("nil designer without error")
		}
		if d != nil {
			d.Satisfiable()
		}
	})
}

// A data dir holding a gob-payload store from before the flat format is not
// decoded: the server logs why it skipped the persisted index, rebuilds from
// the manifest, and answers exactly as before.
func TestServerRebuildsLegacyStoreOnLoad(t *testing.T) {
	srv, _ := testServer(t)
	dir := t.TempDir()
	ds, err := datagen.Biased(70, 2, 0.5, 0.3, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("d", ds); err != nil {
		t.Fatal(err)
	}
	spec := DesignerSpec{
		Dataset: "d",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
	}
	if err := srv.CreateDesigner("x", spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	want, err := srv.Suggest("x", []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "x.index")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, clearFlatFlag(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	logs := &logCapture{}
	restored, err := NewClusterServer(ClusterConfig{Logger: slog.New(logs)})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if !logs.any(`designer "x": persisted index not used, rebuilding: ` + ErrLegacyIndex.Error()) {
		t.Fatalf("no log line says why the index was not used; log:\n%s", strings.Join(logs.lines, "\n"))
	}
	if err := restored.WaitReady(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Suggest("x", []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Distance != want.Distance || !reflect.DeepEqual(got.Weights, want.Weights) {
		t.Fatalf("rebuilt answer %+v differs from original %+v", got, want)
	}
}

// The handoff resume contract: serialization is deterministic, the resume
// offset lands on a section boundary (flatidx.CompletePrefix), and a suffix
// served through the endpoint's skipWriter stitches into a byte-identical
// stream that loads cleanly.
func TestHandoffResumeStitching(t *testing.T) {
	ds, oracle, d, queries := roundtripFixture(t, ModeExact)
	want := suggestAll(t, d, queries)
	var full bytes.Buffer
	if err := d.SaveIndex(&full); err != nil {
		t.Fatal(err)
	}
	good := full.Bytes()

	// Determinism: a second save is byte-identical — the precondition for
	// stitching a refetched suffix onto a kept prefix.
	var again bytes.Buffer
	if err := d.SaveIndex(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, again.Bytes()) {
		t.Fatal("SaveIndex is not deterministic; handoff resume would corrupt")
	}

	for _, cut := range []int{20, 50, len(good) / 3, len(good) - 5} {
		// The stream broke after cut bytes: keep up to the last complete
		// section boundary, exactly like fetchIndexResumable.
		keep := 0
		if hdr := indexPayloadOffset(good); cut > hdr {
			keep = hdr + flatidx.CompletePrefix(good[hdr:cut])
		}
		var rest bytes.Buffer
		if err := d.SaveIndex(&skipWriter{w: &rest, skip: int64(keep)}); err != nil {
			t.Fatal(err)
		}
		stitched := append(append([]byte(nil), good[:keep]...), rest.Bytes()...)
		if !bytes.Equal(stitched, good) {
			t.Fatalf("cut %d: stitched stream differs from the unbroken one", cut)
		}
		loaded, err := LoadDesigner(bytes.NewReader(stitched), ds, oracle)
		if err != nil {
			t.Fatalf("cut %d: stitched stream does not load: %v", cut, err)
		}
		if got := suggestAll(t, loaded, queries); !sameSuggestions(want, got) {
			t.Fatalf("cut %d: resumed index answers differently", cut)
		}
	}
}

// fetchIndexResumable against a real node's GET /cluster/handoff/{id}: a
// proxy that breaks the first response after 60% of its body, having
// declared the full Content-Length, must cost exactly one resume, and the
// stitched bytes must equal SaveIndex's.
func TestHandoffPullResumesBrokenStream(t *testing.T) {
	src := NewServer()
	defer src.Close()
	gossipDatasets(t, src)
	const id = "gossip-exact"
	if err := src.CreateDesigner(id, gossipSpecs()[id]); err != nil {
		t.Fatal(err)
	}
	if err := src.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	entry, _ := src.shard(id).Get(id)
	eng, err := entry.Engine()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := eng.SaveIndex(&want); err != nil {
		t.Fatal(err)
	}

	var requests atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) > 1 {
			src.Handler().ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		src.Handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.Header().Set(cluster.GenerationHeader, rec.Header().Get(cluster.GenerationHeader))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)*6/10]) //nolint:errcheck // the break is the point
	}))
	defer proxy.Close()

	puller := NewServer()
	defer puller.Close()
	peer := cluster.NewPeer(cluster.Member{ID: "proxy", URL: proxy.URL}, nil)
	got, gen, err := puller.fetchIndexResumable(t.Context(), peer, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("resumed pull: %d bytes differ from the %d SaveIndex bytes", len(got), want.Len())
	}
	if gen != entry.Generation() {
		t.Fatalf("pulled generation %d, want %d", gen, entry.Generation())
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("%d requests, want 2 (the broken stream and one resume)", n)
	}
	if n := puller.router.Stats().HandoffResumes.Load(); n != 1 {
		t.Fatalf("%d resumes, want 1", n)
	}
}

// A patched designer's revision chains past its dataset's fingerprint; a
// save/load cycle must restore that revision from the stream, not recompute
// it from the dataset.
func TestLoadDesignerRestoresPatchedRevision(t *testing.T) {
	ds, _, d, _ := roundtripFixture(t, Mode2D)
	delta := DatasetDelta{Removed: []int{0}}
	next, err := ApplyDelta(ds, delta)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := MinShare(next, "group", "protected", 0.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	patched, _, err := d.Patch(next, oracle, delta)
	if err != nil {
		t.Fatal(err)
	}
	if patched.Revision() == next.Fingerprint() {
		t.Fatal("patched revision equals the dataset fingerprint; the test cannot tell them apart")
	}
	var buf bytes.Buffer
	if err := patched.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesigner(&buf, next, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Revision() != patched.Revision() {
		t.Errorf("loaded revision %#x, want the saved %#x", loaded.Revision(), patched.Revision())
	}
}

// A stream without the revision word (header bit 2 clear) loads at the
// dataset's own fingerprint.
func TestLoadDesignerWithoutRevisionWord(t *testing.T) {
	ds, oracle, d, queries := roundtripFixture(t, Mode2D)
	var buf bytes.Buffer
	if err := d.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[20:24], binary.LittleEndian.Uint32(b[20:24])&^flagRevision)
	b = append(b[:indexStreamHeaderLen:indexStreamHeaderLen], b[indexStreamHeaderLen+8:]...)
	loaded, err := LoadDesigner(bytes.NewReader(b), ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Revision() != ds.Fingerprint() {
		t.Errorf("loaded revision %#x, want the dataset fingerprint %#x", loaded.Revision(), ds.Fingerprint())
	}
	if !sameSuggestions(suggestAll(t, loaded, queries), suggestAll(t, d, queries)) {
		t.Error("stream without a revision word answers differently")
	}
}

// The fingerprint must react to scoring values, type values, and names —
// and must be stable across calls.
func TestDatasetFingerprint(t *testing.T) {
	base := func() *Dataset {
		ds, err := NewDataset([]string{"a", "b"}, [][]float64{{1, 2}, {3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.AddTypeAttr("g", []string{"x", "y"}, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	ds := base()
	if ds.Fingerprint() != base().Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	valChanged, _ := NewDataset([]string{"a", "b"}, [][]float64{{1, 2}, {3, 5}})
	valChanged.AddTypeAttr("g", []string{"x", "y"}, []int{0, 1})
	if ds.Fingerprint() == valChanged.Fingerprint() {
		t.Error("fingerprint ignored a scoring value change")
	}
	nameChanged, _ := NewDataset([]string{"a", "c"}, [][]float64{{1, 2}, {3, 4}})
	nameChanged.AddTypeAttr("g", []string{"x", "y"}, []int{0, 1})
	if ds.Fingerprint() == nameChanged.Fingerprint() {
		t.Error("fingerprint ignored a scoring name change")
	}
	typeChanged := base()
	// Adding one more type attribute must change the digest.
	typeChanged.AddTypeAttr("h", []string{"p"}, []int{0, 0})
	if ds.Fingerprint() == typeChanged.Fingerprint() {
		t.Error("fingerprint ignored an added type attribute")
	}
}
