package main

import (
	"time"
)

// perLayer runs the replay of a traced run and folds every measurement into
// the per-layer metrics. Each metric is named after the module it measures;
// the comment beside it names the end-to-end metric it should move. Self
// times are medians over the replayed ops (see medianMicros).
func perLayer(p *plan, r *runner, spans *spanLog, work string) ([]metric, error) {
	ds, err := replay(p, spans, work)
	if err != nil {
		return nil, err
	}
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	sug, _ := selfTimes(spans.spans, opSuggest)
	bat, _ := selfTimes(spans.spans, opBatch)
	pat, _ := selfTimes(spans.spans, opPatch)
	c := r.ctr

	// fairrank: HTTP/JSON and the Server's own work.
	add("fairrank.http_suggest_us", "us", medianMicros(sug[layerHTTP]))       // loop-2d suggest_p50_ms, suggest_per_s
	add("fairrank.http_batch_ms", "ms", medianMicros(bat[layerHTTP])/1e3)     // explore-md batch_p50_ms
	add("fairrank.http_patch_ms", "ms", medianMicros(pat[layerHTTP])/1e3)     // churn-replicated patch_p50_ms
	add("fairrank.allocs_per_suggest", "count", ds.allocsPerSuggest)          // loop-2d suggest_p95_ms
	add("fairrank.patch_server_ms", "ms", medianMicros(pat[layerServer])/1e3) // patch_p50_ms
	add("fairrank.savedir_ms", "ms", r.saveMs)                                // restart_p50_ms
	add("fairrank.loaddir_ms", "ms", r.loadMs)                                // restart_p50_ms

	// cluster: routing, the stale-read guard and replica pushes. Zero on
	// the single-node workloads, which route nothing.
	reads := c[queries] + c[replicaLocal] + c[replicaForwarded] + c[stale]
	add("cluster.forwarded_share", "share", ratio(c[replicaForwarded], reads)) // churn-replicated suggest_p50_ms
	add("cluster.stale_share", "share", ratio(c[stale], reads))                // churn-replicated suggest_p95_ms
	add("cluster.hop_share", "share", hopShare(p, spans.spans))                // churn-replicated suggest_p50_ms
	add("cluster.pushes_per_patch", "count", ratio(c[pushes], c[patches]))     // churn-replicated suggest_p95_ms
	add("cluster.push_kb_per_patch", "KB", ratio(c[pushBytes], c[patches])/1024)
	add("cluster.forward_failures", "count", float64(c[fwdFailures])) // expected 0

	// service: registry, memo cache and engine swaps.
	add("service.cache_hit_rate", "share", ratio(c[cacheHits], c[cacheHits]+c[cacheMisses])) // explore-md suggest_p50_ms; ~0 on loop-2d by design
	add("service.suggest_self_us", "us", medianMicros(sug[layerServer]))                     // loop-2d suggest_p50_ms
	add("service.swaps_per_patch", "count", ratio(c[generations], c[patches]))               // patch_p50_ms

	// planner: the batch planner in front of the kernels.
	add("planner.dedup_rate", "share", ratio(c[dedupedSlots], c[batchSlots]))                 // explore-md batch_p50_ms
	add("planner.resume_share", "share", ratio(c[resumeHits], c[batchSlots]-c[dedupedSlots])) // explore-md batch_p50_ms
	add("planner.batch_us_per_query", "us", ds.batchUsPerQuery)                               // explore-md batch_p50_ms, batch_p90_ms

	// engine: the workload's kernels (twod on loop-2d and churn-replicated,
	// cells and core on explore-md), their builds, memory and repairs.
	kernel := millis(sug[layerDesigner])
	p50, _, _ := tail(kernel, 0.5)
	p90, _, err := tail(kernel, 0.9)
	if err != nil {
		return nil, err
	}
	add("engine.suggest_us", "us", p50*1e3)                             // loop-2d: under 1% of suggest_p50_ms; explore-md suggest_p50_ms
	add("engine.suggest_p90_us", "us", p90*1e3)                         // explore-md suggest_p95_ms, suggest_per_s
	add("engine.build_s", "s", ds.buildS)                               // setup_s
	add("engine.heap_mb", "MB", ds.heapMB)                              // heap_mb
	add("engine.repair_ms", "ms", medianMicros(pat[layerDesigner])/1e3) // patch_p50_ms, patch_p90_ms; churn suggest_p95_ms
	add("engine.patch_rebuild_share", "share", ratio(c[rebuilds], c[repairs]+c[rebuilds]))

	// flatidx: the index format behind SaveIndex / LoadDesigner.
	add("flatidx.save_ms", "ms", ds.saveMs) // restart_p50_ms
	add("flatidx.load_ms", "ms", ds.loadMs) // restart_p50_ms; churn stale_share
	add("flatidx.kb", "KB", ds.sizeKB)

	// runtime: over the measured phase, client and servers together.
	ops := float64(len(p.loop) + len(p.writes))
	add("runtime.gc_per_kop", "count", float64(r.gcs)/ops*1000) // suggest_p95_ms
	add("runtime.alloc_kb_per_op", "KB", float64(r.allocs)/1024/ops)

	// The cost of recording one span, paid once per op in this run.
	add("trace.overhead_us_per_op", "us", spanCost())
	return out, nil
}

// hopShare is what one forwarding hop adds to a read, as a share of the
// same read answered where it entered: the median time in the measured run
// of first-visit singles that entered at a node outside the designer's
// replica set, over that of singles that entered at the owner.
func hopShare(p *plan, spans []span) float64 {
	byID := make(map[int32]*op)
	for i := range p.loop {
		o := &p.loop[i]
		if o.kind == opSuggest && !o.revisit {
			byID[o.id] = o
		}
	}
	var owner, outside []float64
	for _, s := range spans {
		o, ok := byID[s.Op]
		if !ok || s.layer != layerRun {
			continue
		}
		d := float64(s.End-s.Start) / float64(time.Microsecond)
		switch {
		case int(o.node) == p.owners[o.designer]:
			owner = append(owner, d)
		case !contains(p.follows[o.node], p.designers[o.designer].id):
			outside = append(outside, d)
		}
	}
	if len(owner) == 0 || len(outside) == 0 {
		return 0
	}
	return (median(outside) - median(owner)) / median(owner)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
