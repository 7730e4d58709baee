package fairrank

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"fairrank/internal/service"
)

// Server-side dataset mutability (PATCH /v1/datasets/{id}): PatchDataset
// applies a DatasetDelta to a registered dataset and splices the change into
// every designer index this node serves over it — incrementally for a 2D
// designer whose churn is below its threshold (Designer.Patch → engine
// repair), by rebuild otherwise — while queries keep answering from the old
// index until the atomic swap. The patched dataset's spec (revision included)
// then replicates through the normal metadata channels; peers converge by
// running the same splice against their own copies when they materialize it,
// and reconcile's detect-and-patch sweep repairs any index that slipped
// through (a replica promoted from a pre-patch copy, a handoff that raced the
// patch).

// DatasetPatchResult is the outcome of one PatchDataset call.
type DatasetPatchResult struct {
	ID string `json:"id"`
	// N is the patched dataset's item count.
	N int `json:"n"`
	// Revision is the dataset's new revision fingerprint — the previous
	// revision chained with the patched content's fingerprint, so peers that
	// applied the same patches in the same order report the same value.
	Revision uint64 `json:"revision"`
	// Designers reports the splice outcome for every designer index this node
	// serves over the dataset. Dormant specs and remote-owned designers are
	// absent: their serving nodes splice their own copies when the patched
	// spec replicates to them.
	Designers []DesignerPatchResult `json:"designers,omitempty"`
}

// DesignerPatchResult is the splice outcome for one locally served designer.
type DesignerPatchResult struct {
	ID string `json:"id"`
	// Repaired reports the incremental path: the index was spliced in place
	// instead of rebuilt from scratch. Either way the designer now answers
	// byte-identically to a fresh build over the patched dataset.
	Repaired bool   `json:"repaired"`
	Error    string `json:"error,omitempty"`
}

// PatchDataset applies delta to a registered dataset: the survivors keep
// their order, additions land at the tail, and the dataset's revision chains
// forward. Every designer index this node serves over the dataset is then
// spliced to the new state (see DatasetPatchResult); a designer whose splice
// fails keeps serving its previous index and reports the error, without
// failing the dataset patch itself. An empty delta is a no-op reporting the
// current revision.
func (s *Server) PatchDataset(id string, delta DatasetDelta) (DatasetPatchResult, error) {
	s.patchMu.Lock()
	defer s.patchMu.Unlock()
	s.mu.RLock()
	old, ok := s.datasets[id]
	s.mu.RUnlock()
	if !ok {
		return DatasetPatchResult{}, fmt.Errorf("%w: dataset %q", ErrUnknownID, id)
	}
	if delta.Empty() {
		rev, _ := s.DatasetRevision(id)
		return DatasetPatchResult{ID: id, N: old.N(), Revision: rev}, nil
	}
	newDS, err := ApplyDelta(old, delta)
	if err != nil {
		return DatasetPatchResult{}, err
	}
	s.mu.Lock()
	rev := s.datasetRevs[id]
	if rev == 0 {
		rev = old.Fingerprint()
	}
	rev = ChainRevision(rev, newDS.Fingerprint())
	s.datasets[id] = newDS
	s.datasetRevs[id] = rev
	s.mu.Unlock()
	spec := SpecOfDataset(newDS)
	spec.Revision = rev
	payload, merr := json.Marshal(spec)
	if merr != nil {
		return DatasetPatchResult{}, merr
	}
	s.meta.Put(metaKeyDataset(id), payload)
	s.patchTotal.Add(1)
	s.logf("fairrank: patch: dataset %q now %d item(s) at revision %#x (-%d/+%d)",
		id, newDS.N(), rev, len(delta.Removed), len(delta.Added))
	res := DatasetPatchResult{ID: id, N: newDS.N(), Revision: rev}
	res.Designers = s.patchLocalDesigners(id)
	s.replicaTick()
	return res, nil
}

// patchLocalDesigners splices the current state of dataset datasetID into
// every designer index this node holds over it, one entry at a time. Dormant
// specs are skipped — when a build or failover activates them later, the
// late-bound build closure resolves the dataset as it is then.
func (s *Server) patchLocalDesigners(datasetID string) []DesignerPatchResult {
	var out []DesignerPatchResult
	for _, id := range s.DesignerIDs() {
		s.mu.RLock()
		spec, known := s.specs[id]
		s.mu.RUnlock()
		if !known || spec.Dataset != datasetID {
			continue
		}
		entry, held := s.shard(id).Get(id)
		if !held {
			continue
		}
		repaired, err := s.patchEntry(id, entry, spec)
		r := DesignerPatchResult{ID: id, Repaired: repaired}
		if err != nil {
			r.Error = err.Error()
			s.logf("fairrank: patch: designer %q failed to follow dataset %q: %v", id, datasetID, err)
		}
		out = append(out, r)
	}
	return out
}

// patchEntry swaps entry's engine for one answering over the current state of
// its dataset, through the registry's single build slot (Entry.Patch): a
// patch racing a background build waits for the build's swap and then applies
// to whatever won. Everything — the delta included — is therefore derived
// inside the apply closure from the engine it is handed; an engine that
// already answers for the current dataset state is a no-op (no generation
// bump, no cache flush). Incremental repair vs rebuild is Designer.Patch's
// call; a schema change, which no delta can express, rebuilds from scratch
// under the same atomic swap.
func (s *Server) patchEntry(id string, entry *service.Entry, spec DesignerSpec) (repaired bool, err error) {
	begin := time.Now()
	applied := false
	err = entry.Patch(func(eng service.Engine) (service.Engine, error) {
		de, ok := eng.(*designerEngine)
		if !ok {
			return nil, fmt.Errorf("fairrank: designer %q serves a foreign engine", id)
		}
		cur, ok := s.Dataset(spec.Dataset)
		if !ok {
			return nil, fmt.Errorf("%w: dataset %q", ErrUnknownID, spec.Dataset)
		}
		if de.d.ds.Fingerprint() == cur.Fingerprint() {
			return nil, nil // already answers for this state; keep serving
		}
		oracle, oerr := spec.Oracle.Build(cur)
		if oerr != nil {
			return nil, oerr
		}
		delta, diffable := DiffDatasets(de.d.ds, cur)
		if !diffable {
			cfg, cerr := spec.Config.Build()
			if cerr != nil {
				return nil, cerr
			}
			nd, nerr := NewDesigner(cur, oracle, cfg)
			if nerr != nil {
				return nil, nerr
			}
			applied = true
			return &designerEngine{d: nd}, nil
		}
		nd, rep, perr := de.d.Patch(cur, oracle, delta)
		if perr != nil {
			return nil, perr
		}
		repaired, applied = rep, true
		return &designerEngine{d: nd}, nil
	})
	if err != nil || !applied {
		return repaired, err
	}
	if repaired {
		s.patchRepairs.Add(1)
		s.patchDur.observe(time.Since(begin))
		s.logf("fairrank: patch: designer %q index repaired in place (%.1fms)",
			id, float64(time.Since(begin).Microseconds())/1e3)
	} else {
		s.patchRebuilds.Add(1)
		s.logf("fairrank: patch: designer %q rebuilt (churn above threshold or repair unsupported)", id)
	}
	return repaired, nil
}

// repairStale is reconcile's detect-and-patch leg: every designer index this
// node holds whose engine was built over an older state of its dataset — a
// replica copy promoted after the dataset moved on, a handoff that raced a
// patch, a patch push this node missed while down — is spliced forward to the
// current state. The detection is one fingerprint compare per designer, so an
// idle tick costs nothing; the splices run on one background goroutine,
// coalesced so a slow rebuild can never back up the gossip loop.
func (s *Server) repairStale() {
	if !s.repairBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.repairBusy.Store(false)
		for _, id := range s.DesignerIDs() {
			s.mu.RLock()
			spec, known := s.specs[id]
			s.mu.RUnlock()
			if !known {
				continue
			}
			entry, held := s.shard(id).Get(id)
			if !held {
				continue
			}
			eng, err := entry.Engine()
			if err != nil {
				continue // building or failed; the build resolves the current dataset itself
			}
			de, ok := eng.(*designerEngine)
			if !ok {
				continue
			}
			cur, ok := s.Dataset(spec.Dataset)
			if !ok || de.d.ds.Fingerprint() == cur.Fingerprint() {
				continue
			}
			if _, perr := s.patchEntry(id, entry, spec); perr != nil {
				s.logf("fairrank: patch: reconcile repair of designer %q failed: %v", id, perr)
			}
		}
	}()
}

// patchBoundsSec are the bucket upper bounds (seconds) of the repair latency
// histogram — whole decades, because repairs span sub-millisecond 2D merges
// to multi-second exact-mode refits.
var patchBoundsSec = []float64{0.001, 0.01, 0.1, 1, 10}

// patchHist is a fixed-bucket latency histogram for incremental repairs
// (len(patchBoundsSec) buckets plus overflow), rendered by prom.go as
// fairrank_patch_repair_seconds.
type patchHist struct {
	counts [6]atomic.Int64 // len(patchBoundsSec)+1: one per bound plus overflow
	sumNs  atomic.Int64
}

func (h *patchHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(patchBoundsSec) && sec > patchBoundsSec[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// snapshot returns the per-bucket (non-cumulative) counts and the total
// observed seconds, in the shape obs.Prom.Histogram renders.
func (h *patchHist) snapshot() (counts []int64, sumSeconds float64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, float64(h.sumNs.Load()) / 1e9
}
