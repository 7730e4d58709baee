package fairrank

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/engine"
	"fairrank/internal/geom"
	"fairrank/internal/obs"
	"fairrank/internal/planner"
)

// BatchResult is one slot of a SuggestBatch answer: exactly one of
// Suggestion and Err is set.
type BatchResult struct {
	Suggestion *Suggestion
	Err        error
}

// scratchPool recycles per-worker batch arenas (ranking buffers, polar
// scratch) across SuggestBatch calls, so steady-state batch traffic costs a
// constant number of allocations per chunk regardless of engine. Scratches
// are Reset before going back — a chunk's restricted ranking must not leak
// across batches and grown buffers must not pin memory.
var scratchPool = sync.Pool{New: func() any { return new(engine.Scratch) }}

// SuggestBatch answers many design queries in one call. Results line up
// with the queries; each slot holds the same answer (and the same error,
// e.g. ErrUnsatisfiable) that Suggest would return for that query alone.
//
// Each batch goes through the adaptive planner (internal/planner) first:
// bit-identical duplicate queries collapse to one kernel slot whose answer
// fans back out, the survivors are sorted for angular locality so each
// chunk's restricted ranking (engine.Scratch.RestrictChunk) keeps few items,
// and the chunk size and worker count come from an EWMA of what recent
// kernels actually cost — observables only, no statistics tables. Workers
// claim chunks off a shared queue, so a straggling chunk never idles the
// rest of the pool. Every planner decision is a permutation plus fan-out
// over a kernel that answers each query as Suggest would in any order, so
// answers are byte-identical to the naive per-query loop no matter what the
// planner picks.
func (d *Designer) SuggestBatch(queries [][]float64) []BatchResult {
	return d.SuggestBatchCtx(context.Background(), queries)
}

// SuggestBatchCtx is SuggestBatch with trace-span recording: when ctx
// carries an obs.Recorder (the HTTP serving path), the planner decision and
// the kernel execution are recorded as "planner" and "kernel" stages, each
// annotated with what was decided (dedup/sort/chunk shape, worker count,
// kernel queries). A background context degrades to the plain SuggestBatch
// hot path — one nil check per stage, nothing else.
func (d *Designer) SuggestBatchCtx(ctx context.Context, queries [][]float64) []BatchResult {
	results := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return results
	}
	rec := obs.FromContext(ctx)
	qs := make([]geom.Vector, len(queries))
	for i, q := range queries {
		qs[i] = geom.Vector(q)
	}

	sp := rec.Start("planner")
	p := d.plan.Plan(qs)
	sp.EndNote(p.Describe())
	kernelQs := qs
	if !p.PassThrough() {
		kernelQs = p.Queries
	}
	raw := make([]engine.Result, len(kernelQs))

	start := time.Now()
	sp = rec.Start("kernel")
	d.runKernel(raw, kernelQs, &p)
	sp.EndNote(fmt.Sprintf("queries=%d", len(kernelQs)))
	d.plan.Observe(&p, len(kernelQs), float64(time.Since(start).Nanoseconds()))

	if p.PassThrough() {
		convertResults(results, raw)
	} else {
		d.scatterPlanned(results, raw, &p)
	}
	return results
}

// runKernel executes the engine kernel over the scheduled queries per the
// plan's execution shape: serial on the caller's goroutine for cheap
// batches, otherwise p.Workers goroutines claiming contiguous chunks off a
// shared atomic queue (work stealing at the batch layer — a worker that
// lands on an expensive chunk simply claims fewer).
func (d *Designer) runKernel(raw []engine.Result, qs []geom.Vector, p *planner.Plan) {
	if p.Workers <= 1 {
		s := scratchPool.Get().(*engine.Scratch)
		d.eng.SuggestBatch(raw, qs, s)
		s.Reset()
		scratchPool.Put(s)
		return
	}
	chunk := p.ChunkSize
	numChunks := (len(qs) + chunk - 1) / chunk
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*engine.Scratch)
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					break
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > len(qs) {
					hi = len(qs)
				}
				d.eng.SuggestBatch(raw[lo:hi], qs[lo:hi], s)
			}
			s.Reset()
			scratchPool.Put(s)
		}()
	}
	wg.Wait()
}

// convertResults turns raw kernel results into the public shape 1:1, drawing
// the Suggestion structs from one arena — the pass-through path.
func convertResults(results []BatchResult, raw []engine.Result) {
	arena := make([]Suggestion, len(raw))
	for i, r := range raw {
		if r.Err != nil {
			results[i].Err = publicErr(r.Err)
			continue
		}
		sug := &arena[i]
		sug.Weights = r.Weights
		sug.Distance = r.Distance
		sug.AlreadyFair = r.Distance == 0
		results[i].Suggestion = sug
	}
}

// scatterPlanned fans the deduplicated, locality-ordered kernel answers back
// to the original slots: slot i receives schedule position SlotOf[i]. The
// representative slot keeps the kernel's weight vector; duplicate slots get
// their own copy (carved from one arena), so a caller mutating one slot's
// Weights never aliases another.
func (d *Designer) scatterPlanned(results []BatchResult, raw []engine.Result, p *planner.Plan) {
	arena := make([]Suggestion, len(results))
	dupFloats := 0
	for i, k := range p.SlotOf {
		if i != p.Reps[k] && raw[k].Err == nil {
			dupFloats += len(raw[k].Weights)
		}
	}
	wArena := make([]float64, 0, dupFloats)
	for i, k := range p.SlotOf {
		r := raw[k]
		if r.Err != nil {
			results[i].Err = publicErr(r.Err)
			continue
		}
		w := r.Weights
		if i != p.Reps[k] {
			off := len(wArena)
			wArena = append(wArena, w...) // capacity pre-counted: never reallocates
			w = wArena[off:len(wArena):len(wArena)]
		}
		sug := &arena[i]
		sug.Weights = w
		sug.Distance = r.Distance
		sug.AlreadyFair = r.Distance == 0
		results[i].Suggestion = sug
	}
}

// publicErr maps the engine sentinel onto the package sentinel, leaving
// every other kernel error as is.
func publicErr(err error) error {
	if errors.Is(err, engine.ErrUnsatisfiable) {
		return ErrUnsatisfiable
	}
	return err
}
