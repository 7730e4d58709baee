package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runner executes one plan against freshly started servers.
type runner struct {
	p     *plan
	exp   *expected
	work  string
	nodes []*node
	ctl   *client // setup, /metrics, probes
	twins []*node // restarted by the restart cycles, see startTwins
	tc    *client // the restart cycles' connection to the twins

	mu      sync.Mutex // guards everything below while the write stream runs
	cls     [nKinds]*samples
	checked int
	wrong   int
	notes   []string

	lateness, slop []time.Duration // write stream: send − release, and the writer's own slop
	spans          *spanLog        // traced run only

	ctr            counters        // /metrics over the measured phase
	gcs, allocs    uint64          // runtime.MemStats deltas over the measured phase
	singleTime     time.Duration   // the loop's time waiting on single suggests
	saves, loads   []time.Duration // SaveDir and LoadDir inside the restart cycles
	saveMs, loadMs float64         // their medians
}

func newRunner(p *plan, exp *expected, work string) *runner {
	r := &runner{p: p, exp: exp, work: work, ctl: newClient(), tc: newClient()}
	var sizes [nKinds]int
	for _, s := range p.streams() {
		for i := range s {
			sizes[s[i].kind]++
		}
	}
	for k := range r.cls {
		r.cls[k] = newSamples(opNames[k], sizes[k])
	}
	return r
}

// note keeps the first few failure messages for the report.
func (r *runner) note(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// setup starts empty servers and brings every designer to ready over HTTP,
// returning the time from empty servers to the last designer ready. Each
// designer is created with ?wait=true at its owner, which blocks on the
// build's WaitReady: the clock stops on the event itself. (A create through
// a non-owner would poll the owner every 100 ms, http.go designerStatusWait,
// and round the measurement to that tick.) Designers are created one at a
// time, so builds are serial, as the spec defaults ask.
func (r *runner) setup() ([]*node, time.Duration, error) {
	nodes, err := startNodes(r.work, r.p.nodes, r.p.replicas)
	if err != nil {
		return nil, 0, err
	}
	bodies := make([][]byte, len(r.p.datasets))
	for i, d := range r.p.datasets {
		bodies[i] = encodeJSON(map[string]any{"id": d.id, "dataset": d.spec})
	}
	t := time.Now()
	for i := range r.p.datasets {
		if _, err := r.ctl.do(http.MethodPost, nodes[0].url+"/v1/datasets", bodies[i]); err != nil {
			closeNodes(nodes)
			return nil, 0, err
		}
	}
	for i, d := range r.p.designers {
		out, err := r.ctl.do(http.MethodPost, nodes[r.p.owners[i]].url+"/v1/designers?wait=true",
			encodeJSON(map[string]any{"id": d.id, "spec": d.spec}))
		if err == nil && !bytes.Contains(out, []byte(`"status":"ready"`)) {
			err = fmt.Errorf("designer %s not ready after create: %s", d.id, out)
		}
		if err != nil {
			closeNodes(nodes)
			return nil, 0, err
		}
	}
	return nodes, time.Since(t), nil
}

// request builds op o's HTTP request to the server at base, reusing buf for
// the body.
func (p *plan) request(base string, o *op, buf *[]byte) (method, url string, body []byte) {
	switch o.kind {
	case opSuggest:
		*buf = appendSuggestBody((*buf)[:0], o.weights())
		return http.MethodPost, base + "/v1/designers/" + p.designers[o.designer].id + "/suggest", *buf
	case opBatch:
		return http.MethodPost, base + "/v1/designers/" + p.designers[o.designer].id + "/suggest", p.batches[o.batch].body
	default:
		*buf = appendPatchBody((*buf)[:0], o)
		return http.MethodPatch, base + "/v1/datasets/" + p.datasets[o.dataset].id, *buf
	}
}

// record accounts one finished op and checks its answer when sampled. The
// byte comparison runs after the op's clock has stopped.
func (r *runner) record(o *op, lat time.Duration, resp []byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cls[o.kind].add(lat, err == nil)
	if err != nil {
		r.note("%s: %v", opNames[o.kind], err)
		return
	}
	if want, ok := r.exp.ops[o]; ok {
		r.checked++
		if !bytes.Equal(resp, want) {
			r.wrong++
			r.note("wrong %s answer from %s: got %.120s want %.120s", opNames[o.kind], r.p.designers[o.designer].id, resp, want)
		}
	}
}

// runClosed sends a stream's ops one after another on one connection,
// running a restart cycle where the stream holds one, calls done with the
// number of ops completed after each, and returns each op's latency.
func (r *runner) runClosed(stream []op, done func(int)) []time.Duration {
	c := newClient()
	defer c.close()
	var buf []byte
	lats := make([]time.Duration, len(stream))
	for i := range stream {
		o := &stream[i]
		if o.kind == opRestart {
			lats[i] = r.restart(o)
			done(i + 1)
			continue
		}
		method, url, body := r.p.request(r.nodes[o.node].url, o, &buf)
		t := time.Now()
		resp, err := c.do(method, url, body)
		end := time.Now()
		lats[i] = end.Sub(t)
		if o.kind == opSuggest {
			r.singleTime += lats[i]
		}
		r.spans.add(o, layerRun, t, end)
		r.record(o, lats[i], resp, err)
		done(i + 1)
	}
	return lats
}

// runWrites sends the write stream on its own connection, each op once the
// loop has released it and the previous write has been acknowledged, and
// keeps how late it sent. A patch is timed from sent to acknowledged.
func (r *runner) runWrites(stream []op, release <-chan time.Time) {
	c := newClient()
	defer c.close()
	var buf []byte
	epoch := time.Now()
	var prevEnd time.Duration
	for i := range stream {
		o := &stream[i]
		due := (<-release).Sub(epoch)
		method, url, body := r.p.request(r.nodes[o.node].url, o, &buf)
		send := time.Since(epoch)
		resp, err := c.do(method, url, body)
		end := time.Since(epoch)
		slop := slopOf(due, prevEnd, send)
		prevEnd = end
		r.mu.Lock()
		r.lateness, r.slop = append(r.lateness, send-due), append(r.slop, slop)
		r.mu.Unlock()
		r.spans.add(o, layerRun, epoch.Add(send), epoch.Add(end))
		r.record(o, end-send, resp, err)
	}
}

// runMain runs the measured phase: the closed-loop stream and with it, on a
// second connection, the write stream if there is one, each write released
// once the loop has completed the ops before it.
func (r *runner) runMain() []time.Duration {
	var wg sync.WaitGroup
	release := make(chan time.Time, len(r.p.writes))
	if len(r.p.writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runWrites(r.p.writes, release)
		}()
	}
	next := 0
	lats := r.runClosed(r.p.loop, func(done int) {
		for next < len(r.p.writes) && int(r.p.writes[next].after) < done {
			release <- time.Now()
			next++
		}
	})
	wg.Wait()
	return lats
}

// probe asks every node for every designer's answer to every probe and
// compares it with the reference at the final revision: on a patched
// dataset this is the patch≡rebuild contract, checked on owners and
// followers alike.
func (r *runner) probe() {
	for ni, n := range r.nodes {
		for di, d := range r.p.designers {
			for k, w := range r.p.probes {
				var buf []byte
				buf = appendSuggestBody(buf, w[:r.p.datasets[d.dataset].ds.D()])
				resp, err := r.ctl.do(http.MethodPost, n.url+"/v1/designers/"+d.id+"/suggest", buf)
				r.checked++
				switch {
				case err != nil:
					r.wrong++
					r.note("probe %s via node-%d: %v", d.id, ni, err)
				case !bytes.Equal(resp, r.exp.probes[di][k]):
					r.wrong++
					r.note("probe %s via node-%d: got %.120s want %.120s", d.id, ni, resp, r.exp.probes[di][k])
				}
			}
		}
	}
}

// startTwins starts one twin per measured node, loaded from a snapshot of
// that node's state taken after setup, in a cluster of their own. The
// restart cycles restart the twins, not the measured nodes, so that they
// can be spread through the measured phase like every other op class
// without changing what the rest of it measures: a restart replaces a
// server's in-memory state with what it saved, and a 2D designer loaded
// from disk holds no repair state, so interleaved restarts of the measured
// node made half of loop-2d's patches rebuild and its heap fall from
// 154 MB to 1.5 MB. A twin saves and loads the same datasets and designer
// indexes as its measured node.
func (r *runner) startTwins() error {
	dir := filepath.Join(r.work, "twin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	twins, err := startNodes(dir, r.p.nodes, r.p.replicas)
	if err != nil {
		return err
	}
	r.twins = twins
	for i, n := range r.nodes {
		if err := n.srv.Load().SaveDir(twins[i].dir); err != nil {
			return err
		}
		if err := twins[i].srv.Load().LoadDir(twins[i].dir); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) closeTwins() {
	closeNodes(r.twins)
	r.twins = nil
	r.tc.close()
}

// restart runs one restart cycle and returns its time. A cycle restarts
// every twin in turn (a rolling restart of a cluster; a plain restart of a
// single node), each running fairrankd's stop/start sequence and then
// answering one suggest per designer through that node; the cycle is timed
// until the last answer, and every answer must equal the reference before
// any patch, the state the twins hold. Timing whole rolling cycles keeps
// every sample alike: the nodes own different numbers of designers, and a
// per-node sample put the median on the boundary between a fast and a slow
// node. Every cycle asks the same probe, restartProbe, so every cycle does
// the same work. An exact query costs 4–43
// ms by direction; with cycles rotating over 32 probes, explore-md's restart
// p90 fell on the gap between the third and the fourth most costly probe
// and jumped between about 30 and 35 ms with the machine's noise.
func (r *runner) restart(o *op) time.Duration {
	relisten := len(r.twins) == 1 // see node.restart
	var failures []string
	checked := 0
	t := time.Now()
	for _, n := range r.twins {
		s, l, err := n.restart(relisten)
		if err != nil {
			failures = append(failures, fmt.Sprintf("restart %s: %v", n.id, err))
			continue
		}
		r.saves, r.loads = append(r.saves, s), append(r.loads, l)
		if relisten {
			r.tc.hc.CloseIdleConnections() // the old port's connections are gone
		}
		for di, d := range r.p.designers {
			body := appendSuggestBody(nil, r.p.probes[restartProbe][:r.p.datasets[d.dataset].ds.D()])
			resp, err := r.tc.do(http.MethodPost, n.url+"/v1/designers/"+d.id+"/suggest", body)
			checked++
			if err != nil || !bytes.Equal(resp, r.exp.probes0[di][restartProbe]) {
				failures = append(failures, fmt.Sprintf("after restart of twin %s, %s answered %.120s (err %v)", n.id, d.id, resp, err))
			}
		}
	}
	end := time.Now()
	r.spans.add(o, layerRun, t, end)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cls[opRestart].add(end.Sub(t), len(failures) == 0)
	r.checked += checked
	for _, f := range failures {
		r.wrong++
		r.note("%s", f)
	}
	return end.Sub(t)
}

// heapMB is the live heap above base, in MiB.
func heapMB(base uint64) float64 {
	h := liveHeap()
	if h < base {
		return 0
	}
	return float64(h-base) / (1 << 20)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// result is one run's outcome: the end-to-end metrics plus what the report
// prints beside them.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	report            []string
}

type metric struct {
	name  string
	unit  string
	value float64
}

// runPlain runs the whole workload: setups, the measured phase, and
// verification.
func runPlain(p *plan, exp *expected, work string, spans *spanLog) (*runner, *result, error) {
	r := newRunner(p, exp, work)
	r.spans = spans
	defer r.ctl.close()
	base := liveHeap()

	// setup_s is the median of p.setups complete setups; the last one serves.
	var setups []float64
	for i := 0; i < p.setups; i++ {
		nodes, d, err := r.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < p.setups-1 {
			closeNodes(nodes)
			liveHeap()
			continue
		}
		r.nodes = nodes
	}
	defer func() {
		closeNodes(r.nodes)
		r.nodes = nil // a traced run replays next; let the closed servers go
	}()
	if p.replicas > 0 {
		if err := awaitReplicas(r.ctl, r.nodes, p.follows, 30*time.Second); err != nil {
			return nil, nil, err
		}
	}
	err := r.startTwins()
	defer r.closeTwins()
	if err != nil {
		return nil, nil, fmt.Errorf("twins: %w", err)
	}

	before, err := scrape(r.ctl, r.nodes)
	if err != nil {
		return nil, nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	loopLat := r.runMain()
	mainDur := time.Since(t)
	runtime.ReadMemStats(&ms1)
	after, err := scrape(r.ctl, r.nodes)
	if err != nil {
		return nil, nil, err
	}
	r.ctr = after.minus(before)
	r.closeTwins() // heap_mb counts the measured servers only
	heap := heapMB(base)
	r.gcs, r.allocs = uint64(ms1.NumGC-ms0.NumGC), ms1.TotalAlloc-ms0.TotalAlloc

	if p.replicas > 0 {
		if err := awaitReplicas(r.ctl, r.nodes, p.follows, 30*time.Second); err != nil {
			r.wrong++
			r.note("after the run: %v", err)
		}
	}
	r.probe()

	res := &result{correct: r.wrong == 0}
	sug, bat, pat, rst := r.cls[opSuggest], r.cls[opBatch], r.cls[opPatch], r.cls[opRestart]
	add := func(name, unit string, v float64) { res.metrics = append(res.metrics, metric{name, unit, v}) }
	add("setup_s", "s", median(setups))
	add("heap_mb", "MB", heap)
	// Tails are p95 for single suggests and p90 for the rarer classes. The
	// p99 of singles amplified the host's CPU steal: on a 2-vCPU VM it moved
	// 2.5x between loop-2d runs whose p50 moved 14% (0.18 against 0.47 ms),
	// and churn-replicated's sat where its reads' distribution is flat (p98
	// 0.4 ms, p99 1.0–1.5 ms, p99.5 1.9 ms). Its p95 stayed within 3.1–3.5x
	// its p50 in every run measured.
	tailOf := func(s *samples) float64 {
		if s == sug {
			return 0.95
		}
		return 0.9
	}
	var failTail error
	pct := func(s *samples, q float64) float64 {
		v, _, err := percentile(millis(s.lat), q, partsFor(len(s.lat), tailOf(s)))
		if err != nil && failTail == nil {
			failTail = fmt.Errorf("%s: %w", s.name, err)
		}
		return v
	}
	singles := sug.attempted - sug.failed
	add("suggest_p50_ms", "ms", pct(sug, 0.5))
	add("suggest_p95_ms", "ms", pct(sug, 0.95))
	// Singles completed per second of the connection's time spent waiting
	// on them; the other op classes interleaved with them do not count.
	add("suggest_per_s", "1/s", float64(singles)/r.singleTime.Seconds())
	add("batch_p50_ms", "ms", pct(bat, 0.5))
	add("batch_p90_ms", "ms", pct(bat, 0.9))
	add("patch_p50_ms", "ms", pct(pat, 0.5))
	add("patch_p90_ms", "ms", pct(pat, 0.9))
	add("restart_p50_ms", "ms", pct(rst, 0.5))
	add("restart_p90_ms", "ms", pct(rst, 0.9))
	if failTail != nil {
		return nil, nil, failTail
	}
	for _, s := range r.cls {
		res.attempted += s.attempted
		res.failed += s.failed
	}

	// The report: what stands behind each number.
	rep := func(format string, args ...any) { res.report = append(res.report, fmt.Sprintf(format, args...)) }
	rep("setups s=%s (median of %d)", fmtFloats(setups), len(setups))
	rep("measured phase %.2fs, %d closed-loop ops and %d writes; heap %.1f MB over a %.1f MB baseline",
		mainDur.Seconds(), len(p.loop), len(p.writes), heap, float64(base)/(1<<20))
	for _, s := range r.cls {
		q := tailOf(s)
		k := partsFor(len(s.lat), q)
		_, beyond, _ := percentile(millis(s.lat), q, k)
		rep("op %-8s attempted=%d failed=%d; p50 and p%g: median over %d parts of %d samples, at least %d beyond the p%g in each",
			s.name, s.attempted, s.failed, q*100, k, len(s.lat)/k, beyond, q*100)
	}
	rep("answers checked=%d wrong=%d", r.checked, r.wrong)
	d := r.ctr
	rep("server counters: cache hit rate %.3f, batch dedup %.3f, forwarded %d, stale %d, pushes %d, forward failures %d, patches %d (repaired %d, rebuilt %d)",
		ratio(d[cacheHits], d[cacheHits]+d[cacheMisses]), ratio(d[dedupedSlots], d[batchSlots]), d[replicaForwarded], d[stale], d[pushes], d[fwdFailures], d[patches], d[repairs], d[rebuilds])
	rep("runtime: %d GCs, %.1f KB allocated per op in the measured phase", r.gcs, float64(r.allocs)/1024/float64(len(p.loop)+len(p.writes)))
	r.saveMs, r.loadMs = median(millis(r.saves)), median(millis(r.loads))
	rep("restart SaveDir median %.2f ms, LoadDir median %.2f ms", r.saveMs, r.loadMs)
	if len(p.writes) > 0 {
		var owner, follower, outside []float64
		for i := range p.loop {
			o := &p.loop[i]
			if o.kind != opSuggest {
				continue
			}
			ms := float64(loopLat[i]) / 1e6
			switch {
			case int(o.node) == p.owners[o.designer]:
				owner = append(owner, ms)
			case contains(p.follows[o.node], p.designers[o.designer].id):
				follower = append(follower, ms)
			default:
				outside = append(outside, ms)
			}
		}
		rep("suggest p50 by entry node: owner %.3f ms (%d), follower %.3f ms (%d), outside %.3f ms (%d)",
			median(owner), len(owner), median(follower), len(follower), median(outside), len(outside))
		// A writer whose own slop exceeded the mean interval between two
		// releases no longer offered the stated load.
		sm, sx := median(millis(r.slop)), maxMillis(r.slop)
		flag := ""
		if gap := float64(mainDur) / 1e6 / float64(len(p.writes)); sx > gap {
			flag = " BEHIND: the writer fell behind its releases"
		}
		rep("writer lateness (send - release) median %.3f ms max %.3f ms; own slop median %.3f ms max %.3f ms%s",
			median(millis(r.lateness)), maxMillis(r.lateness), sm, sx, flag)
	}
	for _, n := range r.notes {
		rep("failure: %s", n)
	}
	return r, res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxMillis(ds []time.Duration) float64 {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return float64(m) / 1e6
}

func fmtFloats(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out, _ := json.Marshal(s)
	return string(out)
}
