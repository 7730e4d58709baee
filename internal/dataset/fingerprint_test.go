package dataset

import (
	"sync"
	"testing"
)

// fingerprintBase is a small dataset with two type attributes.
func fingerprintBase(t *testing.T) *Dataset {
	t.Helper()
	ds, err := New([]string{"x", "y"}, [][]float64{{1, 3.5}, {1.5, 3.1}, {1.91, 2.3}, {2.3, 1.8}, {3.2, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("g", []string{"a", "b"}, []int{0, 1, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("h", []string{"p", "q", "r"}, []int{2, 0, 1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	return ds
}

// The cached fingerprint of every way a dataset is built equals a fresh
// digest of its content, on the first call and from the cache.
func TestFingerprintCacheMatchesFreshDigest(t *testing.T) {
	base := fingerprintBase(t)
	patched, err := Apply(base, Delta{Removed: []int{1}, Added: []AddItem{
		{Row: []float64{0.5, 0.25}, Types: map[string]string{"g": "b", "h": "r"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	subset, err := base.Subset([]int{4, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	projected, err := base.Project("y")
	if err != nil {
		t.Fatal(err)
	}
	normalized, err := base.Normalize("x")
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*Dataset{
		"New+AddTypeAttr": base, "Apply": patched, "Subset": subset,
		"Project": projected, "Normalize": normalized,
	} {
		want := ds.fingerprint()
		for call := 0; call < 2; call++ {
			if got := ds.Fingerprint(); got != want {
				t.Errorf("%s, call %d: Fingerprint %#x, fresh digest %#x", name, call, got, want)
			}
		}
	}
}

// AddTypeAttr discards the cached fingerprint: the digest taken before it
// is not returned after it.
func TestFingerprintAfterAddTypeAttr(t *testing.T) {
	ds := fingerprintBase(t)
	before := ds.Fingerprint()
	if err := ds.AddTypeAttr("k", []string{"u"}, make([]int, ds.N())); err != nil {
		t.Fatal(err)
	}
	after := ds.Fingerprint()
	if after == before {
		t.Fatalf("Fingerprint after AddTypeAttr still %#x", before)
	}
	if want := ds.fingerprint(); after != want {
		t.Fatalf("Fingerprint after AddTypeAttr %#x, fresh digest %#x", after, want)
	}
}

// Concurrent first callers all get the fresh digest (run under -race).
func TestFingerprintConcurrentCallers(t *testing.T) {
	ds := fingerprintBase(t)
	want := ds.fingerprint()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := ds.Fingerprint(); got != want {
					t.Errorf("Fingerprint %#x, want %#x", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
