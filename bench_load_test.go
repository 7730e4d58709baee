// Index load, handoff-activation and restart benchmarks. The index loads
// cover all three engines over the flat zero-copy payload, and report MB/s
// via b.SetBytes for direct payload-size context. The restart benchmarks
// time a whole data directory cycle at perfbench's loop-2d and explore-md
// shapes. CI runs these with -bench
// 'BenchmarkIndexLoad|BenchmarkHandoffActivate|BenchmarkSaveLoadDir' and
// converts the output to BENCH_load.json (cmd/benchjson), so the cold start,
// handoff and restart latency trajectory is tracked across changes.
package fairrank_test

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"fairrank"
	"fairrank/internal/datagen"
)

// loadFixture is one mode's serialized index, plus the dataset/oracle needed
// to reload it and one fair-ish query to force post-load activation work in
// the handoff benchmarks.
type loadFixture struct {
	ds     *fairrank.Dataset
	oracle fairrank.Oracle
	flat   []byte
	query  []float64
}

var (
	loadFixtures   = map[fairrank.Mode]*loadFixture{}
	loadFixturesMu sync.Mutex
)

// loadFixtureFor builds the mode's designer once per process (the exact
// engine's offline phase is too slow to rebuild per b.N probe) and captures
// its index stream. The exact fixture uses n = 2000 points — large witness
// and side slabs — with a hyperplane cap so the arrangement build stays tractable while the serialized index is
// dominated by per-region data, which is what load time is about.
func loadFixtureFor(b *testing.B, mode fairrank.Mode) *loadFixture {
	b.Helper()
	loadFixturesMu.Lock()
	defer loadFixturesMu.Unlock()
	if fx, ok := loadFixtures[mode]; ok {
		if fx == nil {
			b.Skip("unsatisfiable instance")
		}
		return fx
	}
	var (
		n, d int
		cfg  fairrank.Config
	)
	switch mode {
	case fairrank.Mode2D:
		n, d = 2000, 2
		cfg = fairrank.Config{Mode: mode, Workers: -1}
	case fairrank.ModeExact:
		n, d = 2000, 2
		cfg = fairrank.Config{Mode: mode, MaxHyperplanes: 400, Workers: -1}
	case fairrank.ModeApprox:
		n, d = 1000, 3
		cfg = fairrank.Config{Mode: mode, Cells: 20000, MaxHyperplanes: 1500, Workers: -1}
	}
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 17)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	designer, err := fairrank.NewDesigner(ds, oracle, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !designer.Satisfiable() {
		loadFixtures[mode] = nil
		b.Skip("unsatisfiable instance")
	}
	var flat bytes.Buffer
	if err := designer.SaveIndex(&flat); err != nil {
		b.Fatal(err)
	}
	query := make([]float64, d)
	for j := range query {
		query[j] = 1 / math.Sqrt(float64(d))
	}
	fx := &loadFixture{ds: ds, oracle: oracle, flat: flat.Bytes(), query: query}
	loadFixtures[mode] = fx
	return fx
}

// benchIndexLoad measures a full LoadDesigner over the serialized stream:
// header parse, payload decode (zero-copy slab aliasing), and engine
// construction.
func benchIndexLoad(b *testing.B, mode fairrank.Mode) {
	fx := loadFixtureFor(b, mode)
	b.SetBytes(int64(len(fx.flat)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairrank.LoadDesigner(bytes.NewReader(fx.flat), fx.ds, fx.oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHandoffActivate measures what a node pays between receiving a handoff
// stream and serving its first query from it: decode plus one Suggest.
func benchHandoffActivate(b *testing.B, mode fairrank.Mode) {
	fx := loadFixtureFor(b, mode)
	b.SetBytes(int64(len(fx.flat)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fairrank.LoadDesigner(bytes.NewReader(fx.flat), fx.ds, fx.oracle)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Suggest(fx.query); err != nil {
			b.Fatal(err)
		}
	}
}

// The Flat suffixes keep the names the committed BENCH_load.json baselines
// are recorded under.
func BenchmarkIndexLoad2DFlat(b *testing.B)     { benchIndexLoad(b, fairrank.Mode2D) }
func BenchmarkIndexLoadExactFlat(b *testing.B)  { benchIndexLoad(b, fairrank.ModeExact) }
func BenchmarkIndexLoadApproxFlat(b *testing.B) { benchIndexLoad(b, fairrank.ModeApprox) }

func BenchmarkHandoffActivate2D(b *testing.B)     { benchHandoffActivate(b, fairrank.Mode2D) }
func BenchmarkHandoffActivateExact(b *testing.B)  { benchHandoffActivate(b, fairrank.ModeExact) }
func BenchmarkHandoffActivateApprox(b *testing.B) { benchHandoffActivate(b, fairrank.ModeApprox) }

// restartServers caches, per benchmark, the server whose state the restart
// benchmarks save and load: its designers take too long to build per b.N
// probe.
var (
	restartServers   = map[string]*fairrank.Server{}
	restartServersMu sync.Mutex
)

// restartDataset is one dataset of a restart fixture: perfbench's
// datagen.Biased corpus, seeded from 2019.
type restartDataset struct {
	id   string
	n, d int
	seed int64
}

// restartServer builds, once per process, a server holding the datasets
// and a designer per spec under MinShare 0.2/0.35, and waits for every build.
func restartServer(b *testing.B, name string, datasets []restartDataset, designers map[string]fairrank.DesignerSpec) *fairrank.Server {
	b.Helper()
	restartServersMu.Lock()
	defer restartServersMu.Unlock()
	if srv, ok := restartServers[name]; ok {
		return srv
	}
	srv := fairrank.NewServer()
	for _, d := range datasets {
		ds, err := datagen.Biased(d.n, d.d, 0.5, 0.3, 1, d.seed)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.AddDataset(d.id, ds); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for id, spec := range designers {
		spec.Oracle = fairrank.OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35}
		if err := srv.CreateDesigner(id, spec); err != nil {
			b.Fatal(err)
		}
		if err := srv.WaitReady(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	restartServers[name] = srv
	return srv
}

// benchSaveLoadDir times what a restart from a data directory costs the
// server: each op is one SaveDir, Close, NewServer and LoadDir, as
// fairrankd's shutdown and start run them. Every designer must serve from
// its persisted index afterwards, not rebuild.
func benchSaveLoadDir(b *testing.B, srv *fairrank.Server) {
	dir := b.TempDir()
	if err := srv.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	cur := fairrank.NewServer()
	if err := cur.LoadDir(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cur.SaveDir(dir); err != nil {
			b.Fatal(err)
		}
		cur.Close()
		cur = fairrank.NewServer()
		if err := cur.LoadDir(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	defer cur.Close()
	for _, id := range cur.DesignerIDs() {
		if st, err := cur.DesignerStatus(id); err != nil || st.Status != "ready" {
			b.Fatalf("designer %q after LoadDir: %+v, %v", id, st, err)
		}
	}
}

// BenchmarkSaveLoadDir2D is loop-2d's state: the 5000-item and 300-item 2D
// datasets with a 2D designer over each.
func BenchmarkSaveLoadDir2D(b *testing.B) {
	benchSaveLoadDir(b, restartServer(b, "2d",
		[]restartDataset{{"loop", 5000, 2, 2019}, {"side", 300, 2, 2020}},
		map[string]fairrank.DesignerSpec{
			"loop": {Dataset: "loop", Config: fairrank.ConfigSpec{Mode: "2d"}},
			"side": {Dataset: "side", Config: fairrank.ConfigSpec{Mode: "2d"}},
		}))
}

// BenchmarkSaveLoadDirMD is explore-md's state: the d=3 1000-item dataset
// with an approx designer (4000 cells, 200 hyperplanes) and an exact one
// (40 hyperplanes), and the 300-item dataset with an exact designer (20).
func BenchmarkSaveLoadDirMD(b *testing.B) {
	benchSaveLoadDir(b, restartServer(b, "md",
		[]restartDataset{{"md", 1000, 3, 2019}, {"side", 300, 3, 2020}},
		map[string]fairrank.DesignerSpec{
			"approx": {Dataset: "md", Config: fairrank.ConfigSpec{Mode: "approx", Cells: 4000, MaxHyperplanes: 200}},
			"exact":  {Dataset: "md", Config: fairrank.ConfigSpec{Mode: "exact", MaxHyperplanes: 40}},
			"side":   {Dataset: "side", Config: fairrank.ConfigSpec{Mode: "exact", MaxHyperplanes: 20}},
		}))
}
