package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fairrank"
	"fairrank/internal/cluster"
	"fairrank/internal/datagen"
)

// The three workloads. Each stresses different layers; workloadWhy is
// printed with every run and mirrored in BENCHMARK.json.
var workloadWhy = map[string]string{
	"loop-2d": "one 2D designer, fresh directions on one closed-loop connection: the kernel is well under 1% of a request, " +
		"so HTTP, JSON, tracing and service bookkeeping dominate; the memo cache never hits",
	"explore-md": "d=3 approx and exact designers driven by design-loop sessions with revisits and 256-direction batches: " +
		"kernels, the memo cache and the batch planner do the work; setup is the paper's multi-dimensional preprocessing",
	"churn-replicated": "three nodes with one read replica each, closed-loop reads entering at every node plus paced one-item PATCHes: " +
		"forwarding, the stale-read guard, replica push and load, 2D repair and memo invalidation under read load",
}

var workloadNames = []string{"loop-2d", "explore-md", "churn-replicated"}

// Every op class besides single suggests gets at least rareOps samples per
// run: split into three parts (see partsFor), each has 10 beyond its p90,
// as the rule asks. Where an op is cheap, a run takes several times more,
// which steadies its p90 for free: at 128 samples the p90 of
// sub-millisecond loop-2d patches moved by 58% between seeds.
const rareOps = 300

type datasetDef struct {
	id   string
	ds   *fairrank.Dataset
	spec fairrank.DatasetSpec
}

type designerDef struct {
	id      string
	dataset int
	engine  string // the module answering its suggests: twod, cells or core
	spec    fairrank.DesignerSpec
}

// plan is everything a run sends, generated before any server exists; the
// servers only ever see these generated inputs.
type plan struct {
	nodes    int
	replicas int
	// setups is how many complete setups a run makes; setup_s is their
	// median, so one slow build does not move the figure.
	setups    int
	datasets  []datasetDef
	designers []designerDef

	// loop is the measured phase's closed-loop stream. It holds every op
	// class but churn-replicated's writes, spread evenly through it (see
	// interleave); its restart cycles restart the twin nodes (see
	// runner.restart). writes is churn-replicated's write stream, sent
	// alongside loop on a second connection as loop releases each op.
	loop, writes []op

	batches []batchData
	probes  [][3]float64 // verification directions, used for every designer
	owners  []int        // designer → owning node
	follows [][]string   // node → designer ids it follows as a replica
}

// minShare is the oracle of the repo's own benchmarks: the protected group
// holds at least 35% of the top 20%.
var minShare = fairrank.OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35}

func (p *plan) addDataset(id string, n, d int, seed int64) {
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, seed)
	if err != nil {
		panic(err) // datagen fails only on invalid sizes, which are constants here
	}
	p.datasets = append(p.datasets, datasetDef{id: id, ds: ds, spec: fairrank.SpecOfDataset(ds)})
}

func (p *plan) addDesigner(id string, dataset int, engine string, cfg fairrank.ConfigSpec) {
	p.designers = append(p.designers, designerDef{id: id, dataset: dataset, engine: engine,
		spec: fairrank.DesignerSpec{Dataset: p.datasets[dataset].id, Oracle: minShare, Config: cfg}})
}

// newPlan builds the workload's datasets and draws its op sequence from
// seed. The closed-loop streams are fixed op sequences whose length scales
// with seconds, never loops bounded by a clock: the memo cache stops
// inserting after 16,384 directions per generation (internal/service/cache.go),
// so a loop that ran until a deadline would change its hit rate with the
// machine's speed.
func newPlan(workload string, seed int64, seconds int) (*plan, error) {
	p := &plan{nodes: 1, setups: 3}
	g := newGen(seed, 1)
	// The datasets are the same for every seed, like a fixed corpus; the
	// seed draws the ops. With seeded datasets the instance itself varied:
	// explore-md's batch p50 ranged 4.3–6.1 ms over five seeds, a spread of
	// 0.22 against a bound of 0.25.
	switch workload {
	case "loop-2d":
		p.addDataset("loop", 5000, 2, datasetSeed)
		// The side dataset takes the patches. At n=100 a patch took ~0.2 ms
		// and its median jumped between ~0.17 and ~0.28 ms from one run of
		// the same seed to the next; at n=300 the repair's own work sets the
		// figure.
		p.addDataset("side", 300, 2, datasetSeed+1)
		p.addDesigner("loop", 0, "twod", fairrank.ConfigSpec{Mode: "2d"})
		p.addDesigner("side", 1, "twod", fairrank.ConfigSpec{Mode: "2d"})
		// Fresh directions only: the working set is far beyond the cache.
		singles := make([]op, loop2DPerSecond*seconds)
		units := make([][]op, len(singles))
		for i := range singles {
			singles[i] = op{kind: opSuggest, dim: 2, w: g.fresh(2), check: i%16 == 0}
			units[i] = singles[i : i+1]
		}
		batches := make([]op, 4*rareOps)
		for i := range batches {
			batches[i] = op{kind: opBatch, dim: 2,
				batch: g.batchAround(g.fresh(2), 2, batch2DSize, batch2DDupFrac), check: i%8 == 0}
		}
		patches := make([]op, 2*rareOps)
		side := p.items(1)
		for i := range patches {
			patches[i] = g.patch(1, side, 2)
		}
		p.loop = interleave(units, batches, patches, restartOps())
	case "explore-md":
		p.addDataset("md", 1000, 3, datasetSeed)
		p.addDataset("side", 300, 3, datasetSeed+1)
		p.addDesigner("approx", 0, "cells", fairrank.ConfigSpec{Mode: "approx", Cells: 4000, MaxHyperplanes: 200})
		p.addDesigner("exact", 0, "core", fairrank.ConfigSpec{Mode: "exact", MaxHyperplanes: 40})
		p.addDesigner("side", 1, "core", fairrank.ConfigSpec{Mode: "exact", MaxHyperplanes: 20})
		// Four sessions in five on approx, each ending in a batch around its
		// proposal; every fifth on exact (single queries only). Patches and
		// restart cycles go between sessions.
		//
		// The exact sessions are part of the fixed corpus, like the
		// datasets: the seed draws the approx sessions, their batches and
		// the patches.
		// An exact query costs from a quarter of a millisecond to over 40 ms
		// by direction, so the few costly directions a seed happened to draw
		// set the exact designer's mean: seeded, it ranged 4.4–5.5 ms over
		// five seeds and moved suggest_per_s with it (spread 0.20), while the
		// approx designer's mean moved by 4%.
		exact := newGen(datasetSeed, 3)
		var sessions [][]op
		for s := 0; s < exploreSessionsPerSecond*seconds; s++ {
			if s%5 == 4 {
				sessions = append(sessions, exact.session(1, 3, noBatch))
			} else {
				sessions = append(sessions, g.session(0, 3, newBatch))
			}
		}
		patches := make([]op, rareOps)
		side := p.items(1)
		for i := range patches {
			patches[i] = g.patch(1, side, 3)
		}
		p.loop = interleave(sessions, patches, restartOps())
		markChecks(p.loop, 8, nil)
	case "churn-replicated":
		p.nodes, p.replicas = 3, 1
		// Three setups of 0.15–0.22 s each gave setup_s a spread of 0.22
		// over five seeds; more of them cost little.
		p.setups = 11
		for i := 0; i < 3; i++ {
			p.addDataset(fmt.Sprintf("c%d", i), churnN, 2, datasetSeed+int64(i))
			p.addDesigner(fmt.Sprintf("c%d", i), i, "twod", fairrank.ConfigSpec{Mode: "2d"})
		}
		// Reads: design-loop sessions (7 singles and a batch) on one
		// closed-loop connection. Sessions cycle over the designers and ops
		// over the entry nodes, so every run has the same mix of local,
		// replica and forwarded reads. Writes: one-item patches of dataset
		// c0 on a second connection, each sent to c0's owner so the
		// acknowledgement includes the repair.
		//
		// The reads were first an open loop at 400/s. On a 2-vCPU VM that
		// read p50 moved by 20% and p99 by 69% (interquartile over median,
		// five seeds): every sparse request paid an idle wake-up, and the
		// read p99 sat on the edge of the few reads that met a collection.
		// A closed loop keeps the CPUs busy, so those costs stop deciding
		// the figures; repairs still compete with the reads for the CPUs.
		// The sessions' batches (2D-sized, see batch2DSize) come from a
		// pool of rareOps: a batch per session of a closed loop this fast
		// would hold hundreds of MB of generated input.
		for i := 0; i < rareOps; i++ {
			g.batchAround(g.fresh(2), 2, batch2DSize, batch2DDupFrac)
		}
		var reads []op
		for s := 0; len(reads) < churnReadsPerSecond*seconds; s++ {
			reads = append(reads, g.session(uint8(s%3), 2, int32(s%rareOps))...)
		}
		reads = reads[:churnReadsPerSecond*seconds]
		units := make([][]op, len(reads))
		for i := range reads {
			reads[i].node = uint8(i % 3)
			units[i] = reads[i : i+1]
		}
		// c0 changes under the reads, so only c1 and c2 are checked inline;
		// c0 is checked on every node at the final revision.
		markChecks(reads, 8, func(o *op) bool { return o.designer != 0 })
		// rareOps patches spread evenly over the read loop, so every one
		// meets the same read load. (2/s plus a quiet patch phase made two
		// populations, and the median moved by 23% with the mix; with 128
		// patches, 12 beyond the p90, the p90 moved by 40% between seeds.)
		// The loop releases each one when it has completed its share of
		// ops, not a clock: paced over --seconds, the writes ended after
		// 20 s of a 31 s loop on a 2-vCPU VM, and the share of reads that
		// met them moved with the machine's speed.
		writes := make([]op, rareOps)
		groups := p.items(0)
		for i := range writes {
			writes[i] = g.patch(0, groups, 2)
		}
		p.loop, p.writes = interleave(units, restartOps()), writes
		for i := range p.writes {
			p.writes[i].after = int32((2*i + 1) * len(p.loop) / (2 * len(p.writes)))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	// The probes are part of the fixed corpus, like the datasets.
	p.probes = append(p.probes, [3]float64{1, 1, 1}) // restartProbe
	pg := newGen(datasetSeed, 2)
	for i := 1; i < 32; i++ {
		p.probes = append(p.probes, pg.fresh(p.datasets[0].ds.D()))
	}
	p.batches = g.batches
	p.place()
	var id int32
	for _, s := range p.streams() {
		for i := range s {
			s[i].id = id
			id++
		}
	}
	return p, nil
}

// interleave spreads each extra op sequence evenly over the gaps between
// units, keeping each sequence's order, so every request class is sampled
// across the whole measured phase. A unit is a run of ops that must stay
// together, such as one design session. (Run as phases of their own, the
// rarer classes each sampled a few seconds of the machine at most: loop-2d's
// 1024 batches took 0.15 s, and their median moved by up to 47% between runs
// with the machine's speed in that moment.)
func interleave(units [][]op, extras ...[]op) []op {
	before := make([][]op, len(units)+1) // extras sent before units[k]
	total := 0
	for _, xs := range extras {
		for j := range xs {
			k := (j + 1) * len(units) / (len(xs) + 1)
			before[k] = append(before[k], xs[j])
		}
		total += len(xs)
	}
	for _, u := range units {
		total += len(u)
	}
	out := make([]op, 0, total)
	for k, u := range units {
		out = append(out, before[k]...)
		out = append(out, u...)
	}
	return append(out, before[len(units)]...)
}

// restartOps is a run's restart cycles.
func restartOps() []op {
	out := make([]op, rareOps)
	for i := range out {
		out[i].kind = opRestart
	}
	return out
}

// restartProbe is the probe every restart cycle asks (see runner.restart):
// the direction weighing every attribute equally, sliced to each dataset's
// dimension.
const restartProbe = 0

// datasetSeed draws every workload's datasets.
const datasetSeed = 2019

// Closed-loop sizes per second of --seconds, chosen so the measured phase,
// restart cycles included, lasts about that long on a 2-vCPU VM. They are constants, not measurements, so
// that every machine sends the same ops for the same seed.
const (
	loop2DPerSecond          = 12000
	exploreSessionsPerSecond = 40
	churnReadsPerSecond      = 6000
)

// churnN is the size of each churn-replicated dataset. Every repair
// allocates a few times the live heap, so each patch brings collections of
// the whole process (all three nodes share it); at n=2000 and 6.4 patches/s
// the read p99 moved by 35% between seeds. An n=1000 repair costs ~27 ms.
const churnN = 1000

// markChecks samples every k-th op of each kind (among those keep accepts)
// for byte-for-byte comparison with the reference.
func markChecks(ops []op, k int, keep func(*op) bool) {
	var seen [nKinds]int
	for i := range ops {
		o := &ops[i]
		if keep != nil && !keep(o) {
			continue
		}
		o.check = seen[o.kind]%k == 0
		seen[o.kind]++
	}
}

// place computes each designer's owner and followers with the same
// rendezvous ring the servers use, so creates go straight to the owner.
func (p *plan) place() {
	members := make([]cluster.Member, p.nodes)
	for i := range members {
		members[i] = cluster.Member{ID: fmt.Sprintf("node-%d", i)}
	}
	ring, err := cluster.NewRing(members)
	if err != nil {
		panic(err) // unreachable: distinct non-empty ids
	}
	p.owners = make([]int, len(p.designers))
	p.follows = make([][]string, p.nodes)
	all := func(cluster.Member) bool { return true }
	for i, d := range p.designers {
		set := ring.OwnersFunc(d.id, p.replicas+1, all)
		for k, m := range set {
			var idx int
			fmt.Sscanf(m.ID, "node-%d", &idx)
			if k == 0 {
				p.owners[i] = idx
			} else {
				p.follows[idx] = append(p.follows[idx], d.id)
			}
		}
	}
	// Patches go to the owner of the first designer over the dataset.
	for _, stream := range p.streams() {
		for i := range stream {
			if stream[i].kind == opPatch {
				stream[i].node = uint8(p.owners[p.designerOf(int(stream[i].dataset))])
			}
		}
	}
}

// items copies a dataset's rows and group labels, for tracking through
// patches.
func (p *plan) items(dataset int) *items {
	ds := p.datasets[dataset].ds
	ta, err := ds.TypeAttr("group")
	if err != nil {
		panic(err) // datagen always adds the group attribute
	}
	it := &items{groups: append([]int(nil), ta.Values...)}
	for i := 0; i < ds.N(); i++ {
		var row [3]float64
		copy(row[:], ds.Item(i))
		it.rows = append(it.rows, row)
	}
	return it
}

// streams lists every op sequence of the run.
func (p *plan) streams() [][]op {
	return [][]op{p.loop, p.writes}
}

func (p *plan) designerOf(dataset int) int {
	for i, d := range p.designers {
		if d.dataset == dataset {
			return i
		}
	}
	return -1
}

// finalDataset applies every patch the plan sends to a dataset, in order.
func (p *plan) finalDataset(dataset int) (*fairrank.Dataset, int, error) {
	ds := p.datasets[dataset].ds
	count := 0
	for _, stream := range p.streams() {
		for i := range stream {
			o := &stream[i]
			if o.kind != opPatch || int(o.dataset) != dataset {
				continue
			}
			next, err := fairrank.ApplyDelta(ds, delta(o))
			if err != nil {
				return nil, 0, err
			}
			ds = next
			count++
		}
	}
	return ds, count, nil
}

func delta(o *op) fairrank.DatasetDelta {
	group := "majority"
	if o.protect {
		group = "protected"
	}
	return fairrank.DatasetDelta{
		Removed: []int{int(o.remove)},
		Added:   []fairrank.PatchItem{{Row: append([]float64(nil), o.weights()...), Types: map[string]string{"group": group}}},
	}
}

// buildDesigner is what the owner's build does for a spec, in-process.
func buildDesigner(ds *fairrank.Dataset, spec fairrank.DesignerSpec) (*fairrank.Designer, error) {
	oracle, err := spec.Oracle.Build(ds)
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config.Build()
	if err != nil {
		return nil, err
	}
	return fairrank.NewDesigner(ds, oracle, cfg)
}

// answerJSON mirrors the server's suggestion encoding (http.go), so an
// expected answer is the exact bytes a correct server sends.
type answerJSON struct {
	Weights     []float64 `json:"weights,omitempty"`
	Distance    float64   `json:"distance"`
	AlreadyFair bool      `json:"already_fair"`
	Error       string    `json:"error,omitempty"`
}

func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v) // in-memory encode of plain structs cannot fail
	return buf.Bytes()
}

func expectSuggest(d *fairrank.Designer, w []float64) []byte {
	s, err := d.Suggest(w)
	if err != nil {
		return encodeJSON(map[string]string{"error": err.Error()})
	}
	return encodeJSON(answerJSON{Weights: s.Weights, Distance: s.Distance, AlreadyFair: s.AlreadyFair})
}

func expectBatch(d *fairrank.Designer, ws [][]float64) []byte {
	res := d.SuggestBatch(ws)
	out := struct {
		Results []answerJSON `json:"results"`
	}{Results: make([]answerJSON, len(res))}
	for i, r := range res {
		if r.Err != nil {
			out.Results[i] = answerJSON{Error: r.Err.Error()}
			continue
		}
		out.Results[i] = answerJSON{Weights: r.Suggestion.Weights, Distance: r.Suggestion.Distance, AlreadyFair: r.Suggestion.AlreadyFair}
	}
	return encodeJSON(out)
}

// expected holds the reference answers: for every checked op in plan order,
// and for every probe on every designer at the state the probe sees.
type expected struct {
	ops     map[*op][]byte
	probes  [][][]byte // designer → probe → answer at the final revision
	probes0 [][][]byte // the same before any patch: what the twins answer
}

// buildExpected builds an in-process Designer per designer from the same
// generated inputs and answers every checked op and probe, outside any
// timed phase. An instance with no fair function at all fails the run:
// every suggest would fail, and the workloads are chosen so that no
// operation fails.
func buildExpected(p *plan) (*expected, error) {
	e := &expected{ops: make(map[*op][]byte)}
	for i, dd := range p.designers {
		d, err := buildDesigner(p.datasets[dd.dataset].ds, dd.spec)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", dd.id, err)
		}
		if !d.Satisfiable() {
			return nil, fmt.Errorf("reference %s: the instance admits no fair ranking", dd.id)
		}
		memo := make(map[[3]float64][]byte)
		for _, stream := range p.streams() {
			for k := range stream {
				o := &stream[k]
				if !o.check || int(o.designer) != i {
					continue
				}
				switch o.kind {
				case opSuggest:
					if _, ok := memo[o.w]; !ok {
						memo[o.w] = expectSuggest(d, o.weights())
					}
					e.ops[o] = memo[o.w]
				case opBatch:
					e.ops[o] = expectBatch(d, p.batches[o.batch].queries(int(o.dim)))
				}
			}
		}
		var answers0 [][]byte
		for _, w := range p.probes {
			answers0 = append(answers0, expectSuggest(d, w[:p.datasets[dd.dataset].ds.D()]))
		}
		e.probes0 = append(e.probes0, answers0)
		final, n, err := p.finalDataset(dd.dataset)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			if d, err = buildDesigner(final, dd.spec); err != nil {
				return nil, fmt.Errorf("final reference %s: %w", dd.id, err)
			}
			if !d.Satisfiable() {
				return nil, fmt.Errorf("final reference %s: the patched instance admits no fair ranking", dd.id)
			}
		}
		answers := answers0
		if n > 0 {
			answers = nil
			for _, w := range p.probes {
				answers = append(answers, expectSuggest(d, w[:final.D()]))
			}
		}
		e.probes = append(e.probes, answers)
	}
	return e, nil
}
