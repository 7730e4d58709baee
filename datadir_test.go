package fairrank

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairrank/internal/datagen"
)

// dataDirIDs are the datasets (and the 2D designers over them) of
// dataDirServer: one never patched, one patched twice.
var dataDirIDs = []string{"plain", "patched"}

// dataDirServer returns a server holding dataDirIDs. Each dataset carries a
// four-label type attribute beside datagen's two-label group.
func dataDirServer(t *testing.T) *Server {
	t.Helper()
	srv := NewServer()
	t.Cleanup(srv.Close)
	for i, id := range dataDirIDs {
		ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, int64(41+i))
		if err != nil {
			t.Fatal(err)
		}
		band := make([]int, ds.N())
		for j := range band {
			band[j] = j % 4
		}
		if err := ds.AddTypeAttr("band", []string{"north", "east", "south", "west"}, band); err != nil {
			t.Fatal(err)
		}
		if err := srv.AddDataset(id, ds); err != nil {
			t.Fatal(err)
		}
		spec := DesignerSpec{
			Dataset: id,
			Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
			Config:  ConfigSpec{Mode: "2d"},
		}
		if err := srv.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	waitDataDirReady(t, srv)
	for k, delta := range []DatasetDelta{
		{Removed: []int{3}, Added: []PatchItem{{Row: []float64{0.9, 0.2}, Types: map[string]string{"group": "protected", "band": "south"}}}},
		{Added: []PatchItem{{Row: []float64{0.1, 0.8}, Types: map[string]string{"group": "majority", "band": "west"}}}},
	} {
		if _, err := srv.PatchDataset("patched", delta); err != nil {
			t.Fatalf("patch %d: %v", k, err)
		}
	}
	return srv
}

func waitDataDirReady(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range dataDirIDs {
		if err := srv.WaitReady(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// loadDataDir starts a fresh server on dir.
func loadDataDir(t *testing.T, dir string) *Server {
	t.Helper()
	srv := NewServer()
	t.Cleanup(srv.Close)
	if err := srv.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	waitDataDirReady(t, srv)
	return srv
}

// sameDataDirState checks that got serves dataDirIDs as want does: the
// same revisions, the same replicated dataset entries (payload bytes and
// version), and the same answers.
func sameDataDirState(t *testing.T, want, got *Server) {
	t.Helper()
	for _, id := range dataDirIDs {
		wantRev, _ := want.DatasetRevision(id)
		gotRev, ok := got.DatasetRevision(id)
		if !ok || gotRev != wantRev {
			t.Errorf("dataset %q: revision %#x, want %#x", id, gotRev, wantRev)
		}
		wantE, _ := want.meta.Get(metaKeyDataset(id))
		gotE, ok := got.meta.Get(metaKeyDataset(id))
		if !ok || gotE.Version != wantE.Version || !bytes.Equal(gotE.Payload, wantE.Payload) {
			t.Errorf("dataset %q: meta entry v%d (%d payload bytes), want v%d (%d bytes); payloads equal: %v",
				id, gotE.Version, len(gotE.Payload), wantE.Version, len(wantE.Payload), bytes.Equal(gotE.Payload, wantE.Payload))
		}
		for _, q := range [][]float64{{0.5, 0.5}, {0.9, 0.1}, {0.2, 0.8}} {
			w, err := want.Suggest(id, q)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.Suggest(id, q)
			if err != nil {
				t.Fatal(err)
			}
			if g.Distance != w.Distance || !reflect.DeepEqual(g.Weights, w.Weights) {
				t.Errorf("designer %q at %v: answer %+v, want %+v", id, q, g, w)
			}
		}
	}
}

// A restarted node holds every dataset at the revision, version and
// replicated payload bytes the saving node had, patched or not, so it never
// gossips a different payload at the same version.
func TestLoadDirRestoresDatasetMetaEntries(t *testing.T) {
	srv := dataDirServer(t)
	if e, _ := srv.meta.Get(metaKeyDataset("patched")); e.Version != 3 {
		t.Fatalf("patched dataset entry at v%d, want v3", e.Version)
	}
	dir := t.TempDir()
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, id := range dataDirIDs {
		if _, err := os.Stat(filepath.Join(dir, id+".dataset")); err != nil {
			t.Fatalf("dataset %q not saved as a binary file: %v", id, err)
		}
	}
	sameDataDirState(t, srv, loadDataDir(t, dir))
}

// writeLegacyDatasets turns dir's dataset files into the layout of builds
// before the binary format, written the way their SaveDir wrote it: each
// dataset's DatasetSpec JSON with its revision.
func writeLegacyDatasets(t *testing.T, srv *Server, dir string) {
	t.Helper()
	for _, id := range srv.DatasetIDs() {
		ds, _ := srv.Dataset(id)
		spec := SpecOfDataset(ds)
		spec.Revision, _ = srv.DatasetRevision(id)
		if err := writeJSONFile(filepath.Join(dir, id+".dataset.json"), spec); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, id+".dataset")); err != nil {
			t.Fatal(err)
		}
	}
}

// A data directory of an earlier build loads with the same answers and
// revisions, and the next SaveDir replaces each JSON dataset file with a
// binary one.
func TestLoadDirUpgradesJSONDatasets(t *testing.T) {
	srv := dataDirServer(t)
	dir := t.TempDir()
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	writeLegacyDatasets(t, srv, dir)
	upgraded := loadDataDir(t, dir)
	sameDataDirState(t, srv, upgraded)

	if err := upgraded.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, id := range dataDirIDs {
		if _, err := os.Stat(filepath.Join(dir, id+".dataset")); err != nil {
			t.Errorf("dataset %q: no binary file after SaveDir: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".dataset.json")); !os.IsNotExist(err) {
			t.Errorf("dataset %q: JSON file still there after SaveDir (stat: %v)", id, err)
		}
	}
	sameDataDirState(t, srv, loadDataDir(t, dir))
}

// A save cut between writing a binary dataset file and removing the JSON one
// it replaces leaves both: the binary file, the newer, wins.
func TestLoadDirPrefersBinaryDataset(t *testing.T) {
	srv := dataDirServer(t)
	dir := t.TempDir()
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	stale, err := datagen.Biased(30, 2, 0.5, 0.3, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range dataDirIDs {
		if err := writeJSONFile(filepath.Join(dir, id+".dataset.json"), SpecOfDataset(stale)); err != nil {
			t.Fatal(err)
		}
	}
	restored := loadDataDir(t, dir)
	for _, id := range dataDirIDs {
		want, _ := srv.Dataset(id)
		got, _ := restored.Dataset(id)
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("dataset %q loaded from the JSON file, not the binary one", id)
		}
	}
	sameDataDirState(t, srv, restored)
}

// Every flipped byte and every truncation of a dataset file fails LoadDir
// with an error that names the dataset.
func TestLoadDirRejectsDamagedDatasetFile(t *testing.T) {
	ds, err := datagen.Biased(5, 2, 0.5, 0.3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("band", []string{"a", "b", "c"}, []int{0, 1, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	defer srv.Close()
	if err := srv.AddDataset("d", ds); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "d.dataset")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, bad []byte) {
		t.Helper()
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		defer s.Close()
		err := s.LoadDir(dir)
		if err == nil || !strings.Contains(err.Error(), `dataset "d"`) {
			t.Fatalf("%s: LoadDir returned %v, want an error naming dataset \"d\"", what, err)
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		check("flipped byte "+strconv.Itoa(i), bad)
	}
	for cut := range len(good) {
		check("truncated to "+strconv.Itoa(cut)+" bytes", good[:cut])
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	restored := NewServer()
	defer restored.Close()
	if err := restored.LoadDir(dir); err != nil {
		t.Fatalf("restored file: %v", err)
	}
}
