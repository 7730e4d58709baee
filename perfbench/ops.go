package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strconv"
)

type opKind uint8

const (
	opSuggest opKind = iota
	opBatch
	opPatch
	opRestart // a restart cycle of the twin nodes (see runner.restart)
	nKinds
)

var opNames = [nKinds]string{opSuggest: "suggest", opBatch: "batch", opPatch: "patch", opRestart: "restart"}

// op is one request of a workload. It holds no pointers, so a run's op
// sequence (up to a few hundred thousand ops) costs the garbage collector
// nothing to scan while the servers are being measured.
type op struct {
	id       int32 // unique within the run; spans refer to it
	kind     opKind
	designer uint8 // index into plan.designers (suggest, batch)
	dataset  uint8 // index into plan.datasets (patch)
	node     uint8 // entry node
	check    bool  // the answer is compared byte-for-byte with the reference
	revisit  bool  // repeats an earlier direction of its session exactly
	dim      uint8
	w        [3]float64 // suggest: the query; patch: the appended row
	batch    int32      // batch: index into plan.batches
	remove   int32      // patch: pre-patch index of the removed item
	protect  bool       // patch: the appended item belongs to the protected group
	after    int32      // write: released once this many loop ops have completed
}

func (o *op) weights() []float64 { return o.w[:o.dim] }

// batchData is one 256-direction batch: its queries, flattened, and the
// request body encoded ahead of time so the timed path only sends bytes.
type batchData struct {
	flat []float64
	body []byte
}

func (b *batchData) queries(d int) [][]float64 {
	out := make([][]float64, len(b.flat)/d)
	for i := range out {
		out[i] = b.flat[i*d : (i+1)*d]
	}
	return out
}

// Batches of the md designers: 256 directions, a quarter of them
// duplicates.
const (
	batchSize    = 256
	batchDupFrac = 0.25
)

// Batches of the 2D designers: 32 directions, all distinct. The batch
// planner gates its work on timing: a batch runs on the caller's goroutine
// when its estimated kernel work is under 32 µs, and dedup runs when the
// duplicate rate times the kernel-cost EWMA reaches 120 ns
// (internal/planner). A warm 2D lookup costs a few hundred nanoseconds, a
// figure that moves with how busy the machine is, so 256- and 64-direction
// 2D batches with duplicates crossed those lines from run to run, and their
// median moved by up to 44% between seeds. 32 distinct lookups keep the
// estimate far below 32 µs and give dedup nothing to gate on.
const (
	batch2DSize    = 32
	batch2DDupFrac = 0.0
)

// gen draws a workload's inputs. Every draw comes from one seeded source in
// a fixed order, so a seed always yields the same op sequence.
type gen struct {
	r       *rand.Rand
	batches []batchData
}

func newGen(seed int64, salt int64) *gen {
	return &gen{r: rand.New(rand.NewSource(seed*7919 + salt))}
}

// fresh draws a direction in the positive orthant. In 2D it is uniform in
// angle; in 3D each weight is uniform in [0.01, 1.01).
func (g *gen) fresh(d int) [3]float64 {
	var w [3]float64
	if d == 2 {
		th := g.r.Float64() * math.Pi / 2
		w[0], w[1] = math.Cos(th)+1e-3, math.Sin(th)+1e-3
		return w
	}
	for j := 0; j < d; j++ {
		w[j] = 0.01 + g.r.Float64()
	}
	return w
}

// nudge moves one weight of w by a few percent — the designer adjusting a
// proposal by hand.
func (g *gen) nudge(w [3]float64, d int) [3]float64 {
	j := g.r.Intn(d)
	w[j] = math.Max(0.01, w[j]*(1+0.1*g.r.NormFloat64()))
	return w
}

// batchAround draws a batch of size directions scattered around w, of which
// a share dupFrac are exact copies of other slots (the duplicates the
// planner's dedup serves).
func (g *gen) batchAround(w [3]float64, d, size int, dupFrac float64) int32 {
	distinct := int(float64(size) * (1 - dupFrac))
	flat := make([]float64, size*d)
	for i := 0; i < size; i++ {
		src := i
		if i >= distinct {
			src = g.r.Intn(distinct)
		}
		for j := 0; j < d; j++ {
			if src == i {
				flat[i*d+j] = math.Max(0.01, w[j]*(1+0.05*g.r.NormFloat64()))
			} else {
				flat[i*d+j] = flat[src*d+j]
			}
		}
	}
	g.r.Shuffle(size, func(a, b int) {
		for j := 0; j < d; j++ {
			flat[a*d+j], flat[b*d+j] = flat[b*d+j], flat[a*d+j]
		}
	})
	b := batchData{flat: flat}
	b.body = appendBatchBody(nil, b.queries(d))
	g.batches = append(g.batches, b)
	return int32(len(g.batches) - 1)
}

// session is one design loop on one designer: a proposal, four nudges and
// two exact revisits of earlier directions (2 of 7 singles, so the memo
// cache answers about 30% of them and the median stays a miss), followed by
// a batch when batch is not noBatch: a fresh one around the proposal
// (newBatch) or the given one.
func (g *gen) session(designer uint8, d int, batch int32) []op {
	seen := [][3]float64{g.fresh(d)}
	out := []op{{kind: opSuggest, designer: designer, dim: uint8(d), w: seen[0]}}
	for k := 0; k < 6; k++ {
		o := op{kind: opSuggest, designer: designer, dim: uint8(d)}
		if k == 2 || k == 5 {
			o.w, o.revisit = seen[g.r.Intn(len(seen))], true
		} else {
			o.w = g.nudge(seen[len(seen)-1], d)
			seen = append(seen, o.w)
		}
		out = append(out, o)
	}
	if batch == newBatch {
		batch = g.batchAround(seen[0], d, batchSize, batchDupFrac)
	}
	if batch != noBatch {
		out = append(out, op{kind: opBatch, designer: designer, dim: uint8(d), batch: batch})
	}
	return out
}

const (
	noBatch  int32 = -1
	newBatch int32 = -2
)

// items tracks a dataset's rows and group labels (1 = protected) through the
// patches drawn so far.
type items struct {
	rows   [][3]float64
	groups []int
}

// patch draws a one-item update: an item is removed and re-added at the
// tail with its values nudged by about 1% and its group kept. The dataset
// therefore stays the same population through any number of patches — the
// group shares hold, so a fair ranking keeps existing — while every patch
// still moves an item and makes the index repair real work. (Patches that
// appended freshly drawn items let each seed's dataset wander off on its
// own path, and loop-2d's patch median moved by 30% between seeds.)
func (g *gen) patch(dataset uint8, it *items, d int) op {
	r := g.r.Intn(len(it.rows))
	o := op{kind: opPatch, dataset: dataset, dim: uint8(d), remove: int32(r), protect: it.groups[r] == 1}
	for j := 0; j < d; j++ {
		o.w[j] = math.Min(1, math.Max(0, it.rows[r][j]+0.01*g.r.NormFloat64()))
	}
	it.rows = append(append(it.rows[:r:r], it.rows[r+1:]...), o.w)
	it.groups = append(append(it.groups[:r:r], it.groups[r+1:]...), boolInt(o.protect))
	return o
}

// appendSuggestBody encodes {"weights":[...]}. strconv's shortest 'g'
// format round-trips float64 exactly, so the server decodes the very bits
// the reference designer is asked about.
func appendSuggestBody(buf []byte, w []float64) []byte {
	buf = append(buf, `{"weights":`...)
	buf = appendFloats(buf, w)
	return append(buf, '}')
}

func appendBatchBody(buf []byte, ws [][]float64) []byte {
	buf = append(buf, `{"batch":[`...)
	for i, w := range ws {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloats(buf, w)
	}
	return append(buf, "]}"...)
}

func appendPatchBody(buf []byte, o *op) []byte {
	buf = append(buf, `{"remove":[`...)
	buf = strconv.AppendInt(buf, int64(o.remove), 10)
	buf = append(buf, `],"add":[{"row":`...)
	buf = appendFloats(buf, o.weights())
	group := "majority"
	if o.protect {
		group = "protected"
	}
	buf = append(buf, `,"types":{"group":"`...)
	buf = append(buf, group...)
	return append(buf, `"}}]}`...)
}

func appendFloats(buf []byte, w []float64) []byte {
	buf = append(buf, '[')
	for j, x := range w {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	return append(buf, ']')
}

// digest fingerprints an op sequence and its batches: the run metadata
// prints it, so two runs can be shown to have sent identical inputs.
func digest(streams [][]op, batches []batchData) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, s := range streams {
		put(uint64(len(s)))
		for i := range s {
			o := &s[i]
			put(uint64(o.kind) | uint64(o.designer)<<8 | uint64(o.dataset)<<16 | uint64(o.node)<<24 |
				uint64(o.dim)<<32 | boolBit(o.check)<<40 | boolBit(o.revisit)<<41 | boolBit(o.protect)<<42)
			for _, x := range o.w {
				put(math.Float64bits(x))
			}
			put(uint64(o.batch))
			put(uint64(o.remove))
			put(uint64(o.after))
		}
	}
	for _, bd := range batches {
		h.Write(bd.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
