package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"fairrank"
)

// The traced run splits the end-to-end numbers across layers by replaying
// the same seeded ops at each layer's entry point. Each replay runs on fresh
// single-node instances holding every dataset and designer, and sends the
// ops one at a time in the same order, so every layer sees the same memo
// cache history and none sees contention:
//
//	http     — the loopback handler (fairrank HTTP/JSON, tracing middleware);
//	server   — fairrank.Server methods (service registry, memo cache, swap);
//	designer — fairrank.Designer methods (planner and engine kernels).
//
// Every call is one span (op id, layer, start, end, parent op). A layer's
// self time for an op is its span minus the same op's span one layer down,
// so the three self times add up to the op's time at the handler. The
// measured run's own requests are spans too, of layer run: the cluster hop
// comes from them, and recording them is the overhead the traced run's
// end-to-end numbers carry. They are not split, because the replays cannot
// match them everywhere: on churn-replicated they crossed three nodes and
// met concurrent patches.

type layer uint8

const (
	layerRun layer = iota
	layerHTTP
	layerServer
	layerDesigner
	nLayers
)

var layerNames = [nLayers]string{"run", "http", "server", "designer"}

type span struct {
	Op     int32         `json:"op"`
	Kind   string        `json:"kind"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"` // the op whose upper-layer span caused this one; -1 at the top
	layer  layer
	kind   opKind
}

// spanLog keeps spans in memory; a nil log records nothing, which is the
// plain run.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (l *spanLog) add(o *op, ly layer, start, end time.Time) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if ly > layerHTTP { // a replay's lower layers are called by the one above
		parent = o.id
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Op: o.id, Kind: opNames[o.kind], Layer: layerNames[ly],
		Start: start.Sub(l.epoch), End: end.Sub(l.epoch), Parent: parent, layer: ly, kind: o.kind})
	l.mu.Unlock()
}

// write stores the spans of every op the replay sent, and of the restart
// cycles, as JSON lines. (The rest of a long measured phase has only its
// run-layer span and would make the file large without adding a split.)
func (l *spanLog) write(path string) error {
	replayed := make(map[int32]bool)
	for _, s := range l.spans {
		if s.layer == layerServer {
			replayed[s.Op] = true
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if !replayed[l.spans[i].Op] && l.spans[i].kind != opRestart {
			continue
		}
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes folds the replays' spans into per-op, per-layer self times:
// each layer's duration minus the same op's duration one layer down (the
// deepest layer keeps its whole duration). Only ops of kind k with a span at
// every replay layer count, so the self times of an op always sum to its
// handler-layer duration.
func selfTimes(spans []span, k opKind) (self [nLayers][]time.Duration, total []time.Duration) {
	const all = 1<<nLayers - 1<<layerHTTP
	byOp := make(map[int32]*[nLayers]time.Duration)
	seen := make(map[int32]int)
	for _, s := range spans {
		if s.kind != k || s.layer < layerHTTP {
			continue
		}
		d := byOp[s.Op]
		if d == nil {
			d = new([nLayers]time.Duration)
			byOp[s.Op] = d
		}
		d[s.layer] = s.End - s.Start
		seen[s.Op] |= 1 << s.layer
	}
	ids := make([]int32, 0, len(byOp))
	for id, mask := range seen {
		if mask == all {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := byOp[id]
		for ly := layerHTTP; ly < nLayers; ly++ {
			s := d[ly]
			if ly+1 < nLayers {
				s -= d[ly+1]
			}
			self[ly] = append(self[ly], s)
		}
		total = append(total, d[layerHTTP])
	}
	return self, total
}

// medianMicros is the median of per-op self times, in microseconds. A
// median, not a mean: on explore-md a few exact queries of 4–23 ms each
// vary by milliseconds from call to call, and their mean difference swamped
// the microseconds the upper layers add to every query.
func medianMicros(ds []time.Duration) float64 {
	return median(millis(ds)) * 1e3
}

// replayOps is what the replay sends: the first quarter of the measured
// closed-loop stream without its restart cycles, then the writes. The op
// classes are spread evenly through the stream, so its first quarter holds
// a quarter of each, and replaying it at three layers keeps the traced run
// well inside its time limit.
func replayOps(p *plan) []*op {
	var out []*op
	for i := range p.loop[:len(p.loop)/4] {
		if p.loop[i].kind != opRestart {
			out = append(out, &p.loop[i])
		}
	}
	for i := range p.writes {
		out = append(out, &p.writes[i])
	}
	return out
}

// fill adds every dataset and designer of the plan to a fresh server and
// waits until each designer is ready. The replay builds its instances one
// after another and keeps them side by side, so each build's garbage goes
// back to the operating system before the next build starts.
func fill(srv *fairrank.Server, p *plan) error {
	for _, d := range p.datasets {
		if err := srv.AddDataset(d.id, d.ds); err != nil {
			return err
		}
	}
	for _, d := range p.designers {
		if err := srv.CreateDesigner(d.id, d.spec); err != nil {
			return err
		}
		if err := srv.WaitReady(context.Background(), d.id); err != nil {
			return err
		}
	}
	debug.FreeOSMemory()
	return nil
}

// replayStats is what the replay measures besides spans.
type replayStats struct {
	buildS, heapMB         float64 // NewDesigner, and the live heap of the built designers
	saveMs, loadMs, sizeKB float64 // SaveIndex and LoadDesigner
	batchUsPerQuery        float64
	allocsPerSuggest       float64 // heap objects per suggest handler call
}

// replay sends replayOps to three fresh single-node instances in lockstep:
// each op goes to the loopback handler, to a fairrank.Server and to the
// fairrank.Designers before the next op starts. An op's three spans
// are then measured within milliseconds of one another, so the machine's
// speed, which drifts by up to 2x within seconds on a shared 2-vCPU VM,
// cancels out of their differences. (Replayed one layer after another, the
// layers' means came from different moments, and the service's self time
// read -234 µs per suggest on explore-md.)
func replay(p *plan, spans *spanLog, work string) (replayStats, error) {
	var st replayStats
	des, ds, err := designers(p, &st)
	if err != nil {
		return st, err
	}
	debug.FreeOSMemory() // see fill

	logf, err := os.Create(filepath.Join(work, "trace-server.log"))
	if err != nil {
		return st, err
	}
	defer logf.Close()
	cfg := fairrankdConfig("node-0", "", nil, 0, logf)
	srv, err := fairrank.NewClusterServer(cfg)
	if err != nil {
		return st, err
	}
	defer srv.Close()
	if err := fill(srv, p); err != nil {
		return st, err
	}
	// A saved copy, loaded later into another fresh server, gives the
	// handler-allocation pass an empty memo cache as well.
	saved := filepath.Join(work, "trace-server")
	if err := srv.SaveDir(saved); err != nil {
		return st, err
	}

	// The handler's instance loads that copy rather than building its own:
	// a loaded 2D designer holds no repair state (a built loop-2d designer
	// holds 150 MB), which keeps the traced run's peak memory near the
	// plain run's. Its first patch of a 2D dataset rebuilds instead of
	// repairing, one outlier the medians pass over.
	dir := filepath.Join(work, "trace-http")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	nodes, err := startNodes(dir, 1, 0)
	if err != nil {
		return st, err
	}
	defer closeNodes(nodes)
	if err := nodes[0].srv.Load().LoadDir(saved); err != nil {
		return st, err
	}
	c := newClient()
	defer c.close()

	// The service layer answers a direction its memo cache already holds
	// without calling the designer, and flushes the cache when a patch
	// swaps the engine. The designer layer mirrors that: a repeat is a
	// zero-length span, so this layer's time is the time the designer
	// worked.
	cached := make([]map[[3]float64]bool, len(p.designers))
	for i := range cached {
		cached[i] = make(map[[3]float64]bool)
	}
	var buf []byte
	var batchTime time.Duration
	var batchQueries int
	handler := func(o *op) error {
		method, url, body := p.request(nodes[0].url, o, &buf)
		t := time.Now()
		_, err := c.do(method, url, body)
		spans.add(o, layerHTTP, t, time.Now())
		return err
	}
	server := func(o *op) (err error) {
		id := p.designers[o.designer].id
		t := time.Now()
		switch o.kind {
		case opSuggest:
			_, err = srv.Suggest(id, o.weights())
		case opBatch:
			_, err = srv.SuggestBatch(id, p.batches[o.batch].queries(int(o.dim)))
		case opPatch:
			_, err = srv.PatchDataset(p.datasets[o.dataset].id, delta(o))
		}
		spans.add(o, layerServer, t, time.Now())
		return err
	}
	designer := func(o *op) (err error) {
		switch o.kind {
		case opSuggest:
			t := time.Now()
			if m := cached[o.designer]; !m[o.w] {
				_, err = des[o.designer].Suggest(o.weights())
				if len(m) < memoCap {
					m[o.w] = true
				}
			}
			spans.add(o, layerDesigner, t, time.Now())
		case opBatch:
			qs := p.batches[o.batch].queries(int(o.dim))
			t := time.Now()
			res := des[o.designer].SuggestBatch(qs)
			end := time.Now()
			spans.add(o, layerDesigner, t, end)
			batchTime += end.Sub(t)
			batchQueries += len(qs)
			for _, r := range res {
				if r.Err != nil {
					err = r.Err
				}
			}
		case opPatch:
			i := p.designerOf(int(o.dataset))
			dl := delta(o)
			next, err := fairrank.ApplyDelta(ds[o.dataset], dl)
			if err != nil {
				return err
			}
			oracle, err := p.designers[i].spec.Oracle.Build(next)
			if err != nil {
				return err
			}
			t := time.Now()
			nd, _, err := des[i].Patch(next, oracle, dl)
			spans.add(o, layerDesigner, t, time.Now())
			des[i], ds[o.dataset] = nd, next
			cached[i] = make(map[[3]float64]bool)
			return err
		}
		return err
	}
	// The layer that goes first rotates from op to op: the garbage one
	// call leaves is collected during the calls after it, and a fixed order
	// would charge that work to the same layer every time.
	layers := []func(*op) error{handler, server, designer}
	for k, o := range replayOps(p) {
		for j := range layers {
			ly := (k + j) % len(layers)
			if err := layers[ly](o); err != nil {
				return st, fmt.Errorf("%s replay: %s: %w", layerNames[layerHTTP+layer(ly)], opNames[o.kind], err)
			}
		}
	}
	st.batchUsPerQuery = float64(batchTime) / float64(max(batchQueries, 1)) / 1e3

	srv.Close()
	loaded, err := fairrank.NewClusterServer(cfg)
	if err != nil {
		return st, err
	}
	defer loaded.Close()
	if err := loaded.LoadDir(saved); err != nil {
		return st, err
	}
	st.allocsPerSuggest, err = handlerAllocs(p, loaded.Handler())
	return st, err
}

// designers builds every designer in-process and measures its build, its
// live heap and its index persistence. It returns the designers and the
// datasets they stand on.
func designers(p *plan, st *replayStats) ([]*fairrank.Designer, []*fairrank.Dataset, error) {
	base := liveHeap()
	ds := make([]*fairrank.Dataset, len(p.datasets))
	for i, d := range p.datasets {
		ds[i] = d.ds
	}
	des := make([]*fairrank.Designer, len(p.designers))
	for i, d := range p.designers {
		t := time.Now()
		built, err := buildDesigner(ds[d.dataset], d.spec)
		if err != nil {
			return nil, nil, err
		}
		st.buildS += time.Since(t).Seconds()
		des[i] = built
	}
	st.heapMB = heapMB(base)
	for i, d := range des {
		var saves, loads []float64
		var buf bytes.Buffer
		for k := 0; k < 5; k++ {
			buf.Reset()
			t := time.Now()
			if err := d.SaveIndex(&buf); err != nil {
				return nil, nil, err
			}
			saves = append(saves, float64(time.Since(t))/1e6)
			oracle, err := p.designers[i].spec.Oracle.Build(ds[p.designers[i].dataset])
			if err != nil {
				return nil, nil, err
			}
			t = time.Now()
			if _, err := fairrank.LoadDesigner(bytes.NewReader(buf.Bytes()), ds[p.designers[i].dataset], oracle); err != nil {
				return nil, nil, err
			}
			loads = append(loads, float64(time.Since(t))/1e6)
		}
		st.saveMs += median(saves)
		st.loadMs += median(loads)
		st.sizeKB += float64(buf.Len()) / 1024
	}
	return des, ds, nil
}

// handlerAllocs counts heap objects per suggest handler call, served into an
// httptest.ResponseRecorder so no network or client code is counted.
func handlerAllocs(p *plan, h http.Handler) (float64, error) {
	var reqs []*http.Request
	for i := range p.loop {
		o := &p.loop[i]
		if o.kind != opSuggest || len(reqs) >= 2000 {
			continue
		}
		body := appendSuggestBody(nil, o.weights())
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/designers/"+p.designers[o.designer].id+"/suggest", bytes.NewReader(body)))
	}
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, req := range reqs {
		h.ServeHTTP(recs[i], req)
	}
	runtime.ReadMemStats(&m1)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler pass: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(max(len(reqs), 1)), nil
}

// memoCap is the service memo cache's per-generation capacity
// (internal/service/cache.go).
const memoCap = 1 << 14

// spanCost is the tracing overhead per recorded span: the time one add
// takes, measured on a scratch log.
func spanCost() float64 {
	l := newSpanLog()
	o := &op{}
	const n = 200000
	t := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		l.add(o, layerHTTP, now, now)
	}
	return float64(time.Since(t)) / n / 1e3
}
