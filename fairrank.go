// Package fairrank is a system for designing fair score-based ranking
// schemes, reproducing "Designing Fair Ranking Schemes" (Asudeh, Jagadish,
// Stoyanovich, Das — SIGMOD 2019).
//
// Items in a dataset are ranked by a linear scoring function
// f_w(t) = Σ w_j·t[j] with non-negative weights. A black-box fairness
// oracle decides whether the ordering a function induces is satisfactory.
// fairrank preprocesses the dataset offline so that, online, a proposed
// weight vector can be validated in microseconds and — when it is unfair —
// replaced by the closest satisfactory weight vector, where closeness is
// the angular distance between the corresponding rays in weight space.
//
// Basic use:
//
//	ds, _ := fairrank.NewDataset([]string{"gpa", "sat"}, rows)
//	ds.AddTypeAttr("gender", []string{"F", "M"}, genders)
//	oracle, _ := fairrank.MinShare(ds, "gender", "F", 0.25, 0.4)
//	designer, _ := fairrank.NewDesigner(ds, oracle, fairrank.Config{})
//	s, _ := designer.Suggest([]float64{0.5, 0.5})
//	if !s.AlreadyFair {
//	    fmt.Println("try weights", s.Weights, "only", s.Distance, "radians away")
//	}
//
// Three engines are available (Config.Mode):
//
//   - Mode2D: the exact ray-sweeping index of §3 (datasets with exactly two
//     scoring attributes). Offline O(n² (log n + O_n)); online O(log n).
//   - ModeExact: the arrangement-of-hyperplanes index of §4 with the
//     closest-point non-linear program of MDBASELINE. Exponential in d —
//     intended for small studies and as the quality reference.
//   - ModeApprox: the §5 grid index. Offline work is confined to cells the
//     exchange hyperplanes actually cross, with early stopping; online
//     O(log N) with the additive quality bound of Theorem 6.
//
// ModeAuto picks Mode2D for d = 2 and ModeApprox otherwise.
package fairrank

import (
	"errors"
	"fmt"
	"io"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/planner"
	"fairrank/internal/ranking"
)

// Dataset is a collection of items with numeric scoring attributes and
// categorical type attributes. See NewDataset, LoadCSV and the methods of
// the underlying type (Normalize, Project, Sample, AddTypeAttr, ...).
type Dataset = dataset.Dataset

// Oracle is the fairness oracle abstraction: any predicate over an ordering
// of item indices (best first).
type Oracle = fairness.Oracle

// OracleFunc adapts a function to an Oracle.
type OracleFunc = fairness.Func

// GroupBound bounds one group's count in a top-k constraint.
type GroupBound = fairness.GroupBound

// NewDataset creates a dataset from scoring attribute names and item rows.
func NewDataset(scoringNames []string, rows [][]float64) (*Dataset, error) {
	return dataset.New(scoringNames, rows)
}

// LoadCSV reads a dataset from CSV (header row required): scoringCols are
// parsed as numeric scoring attributes, typeCols as categorical attributes.
func LoadCSV(r io.Reader, scoringCols, typeCols []string) (*Dataset, error) {
	return dataset.LoadCSV(r, scoringCols, typeCols)
}

// LoadCSVFile is LoadCSV over a file path.
func LoadCSVFile(path string, scoringCols, typeCols []string) (*Dataset, error) {
	return dataset.LoadCSVFile(path, scoringCols, typeCols)
}

// TopKOracle builds an FM1-style oracle: the groups of one type attribute
// must respect per-group min/max counts among the top k items.
func TopKOracle(ds *Dataset, attr string, k int, bounds []GroupBound) (Oracle, error) {
	return fairness.NewTopK(ds, attr, k, bounds)
}

// MaxShare bounds a group's share of the top topFrac·n items to its share
// of the dataset plus slack — the paper's default constraint shape.
func MaxShare(ds *Dataset, attr, group string, topFrac, slack float64) (Oracle, error) {
	return fairness.MaxShare(ds, attr, group, topFrac, slack)
}

// MinShare requires a group to hold at least share of the top topFrac·n.
func MinShare(ds *Dataset, attr, group string, topFrac, share float64) (Oracle, error) {
	return fairness.MinShare(ds, attr, group, topFrac, share)
}

// Proportional constrains every group of a type attribute to within ±slack
// of its dataset share at the top topFrac·n — full statistical parity.
func Proportional(ds *Dataset, attr string, topFrac, slack float64) (Oracle, error) {
	return fairness.Proportional(ds, attr, topFrac, slack)
}

// PrefixOracle builds a FA*IR-style prefix-fairness oracle: for every prefix
// of length i = 1..k, the protected group must hold at least ⌊p·i⌋ − slack
// positions.
func PrefixOracle(ds *Dataset, attr, group string, k int, p float64, slack int) (Oracle, error) {
	return fairness.NewPrefix(ds, attr, group, k, p, slack)
}

// AllOf is the FM2 combinator: every sub-oracle must accept. Use one TopK
// oracle per type attribute for multi-attribute constraints.
func AllOf(oracles ...Oracle) Oracle { return fairness.All(oracles) }

// AnyOf accepts when at least one sub-oracle accepts.
func AnyOf(oracles ...Oracle) Oracle { return fairness.Any(oracles) }

// Mode selects the preprocessing/query engine.
type Mode int

// Engine modes; see the package documentation.
const (
	ModeAuto Mode = iota
	Mode2D
	ModeExact
	ModeApprox
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case Mode2D:
		return "2d"
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config tunes NewDesigner.
type Config struct {
	// Mode selects the engine; ModeAuto picks Mode2D for 2 scoring
	// attributes and ModeApprox otherwise.
	Mode Mode
	// Cells is the approximate-mode grid size N (default 10,000). Larger N
	// tightens the Theorem 6 quality bound and slows preprocessing.
	Cells int
	// Seed makes preprocessing deterministic (LP shuffles, insertion order).
	Seed int64
	// PruneTopK, when positive, discards items that can never reach the
	// top-k before building ordering exchanges (exact for top-k oracles;
	// the §8 convex-layers optimization). Set it to the oracle's k.
	PruneTopK int
	// MaxHyperplanes caps the number of ordering-exchange hyperplanes
	// indexed in ModeExact/ModeApprox (0 = all).
	MaxHyperplanes int
	// UseArrangementTree enables the Algorithm 5 arrangement tree in
	// ModeExact (recommended; defaults to true via NewDesigner).
	DisableArrangementTree bool
	// CellRegionCap bounds the arrangement work inside one grid cell in
	// ModeApprox: 0 picks the default of 512 probed regions per cell,
	// −1 removes the cap (the paper's exact MARKCELL behaviour; can be
	// very slow on cells with many crossing exchanges), any other value is
	// used as given. Capped cells fall back to CELLCOLORING, so answers
	// remain oracle-verified; only the Theorem 6 distance bound softens.
	CellRegionCap int
	// Workers parallelizes offline preprocessing: the MARKCELL phase of
	// ModeApprox, the segmented ray sweep of Mode2D, and the region-labeling
	// pass of ModeExact (0 = serial, negative = GOMAXPROCS). Results are
	// identical for any worker count. In Mode2D it sets only the segmented
	// sweep: the pair enumeration and sort before it always use every CPU,
	// because their output is identical however the work is split.
	Workers int
	// RefineQueries makes ModeApprox Suggest calls also consider the
	// functions of axis-adjacent cells (never worse, O(d log N) extra).
	RefineQueries bool
	// RepairChurnFrac bounds how large a dataset patch — removals plus
	// additions, as a fraction of the pre-patch item count — Patch may
	// splice into the index incrementally; larger deltas rebuild from
	// scratch (repair's savings shrink as churn grows, and a rebuild is
	// always correct). 0 picks the default of DefaultRepairChurnFrac;
	// negative disables incremental repair entirely.
	RepairChurnFrac float64
}

// ErrUnsatisfiable is returned by Suggest when no linear ranking function
// satisfies the oracle anywhere in the weight space.
var ErrUnsatisfiable = errors.New("fairrank: no satisfactory ranking function exists")

// ErrUnsupportedMode was returned by Designer methods that were only
// implemented for some engine modes. Every engine now implements the full
// interface (Suggest, SuggestBatch, Revalidate, SaveIndex), so no method
// returns it anymore; the variable remains so existing errors.Is checks
// keep compiling.
//
// Deprecated: no fairrank API returns this error.
var ErrUnsupportedMode = errors.New("fairrank: operation not supported by this engine mode")

// Suggestion is the answer to a design query.
type Suggestion struct {
	// Weights is a satisfactory weight vector: the query itself when it
	// was already fair, otherwise the closest satisfactory function found,
	// scaled to the query's magnitude.
	Weights []float64
	// Distance is the angular distance (radians) between query and answer;
	// 0 when AlreadyFair.
	Distance float64
	// AlreadyFair reports that the query satisfied the oracle unmodified.
	AlreadyFair bool
}

// Designer is the query-answering system: built once offline over a dataset
// and an oracle, then queried interactively. All query paths delegate to one
// engine.Engine (see internal/engine), so every capability — Suggest, batch
// kernels, Revalidate, persistence — is uniform across the three modes.
type Designer struct {
	ds     *Dataset
	oracle Oracle
	mode   Mode
	refine bool
	eng    engine.Engine
	// cfg is the build configuration, retained so Patch can rebuild with
	// identical options when incremental repair does not apply. Loaded
	// designers start with the zero Config until RestoreConfig.
	cfg Config
	// revision identifies the dataset state this designer answers for: the
	// dataset fingerprint at build time, chained through every patch (see
	// Patch). Two designers at the same revision answer identically.
	revision uint64
	// plan is the adaptive batch planner's feedback state (EWMAs and
	// counters); the zero value is ready, see SuggestBatch.
	plan planner.State
}

// NewDesigner preprocesses the dataset for the given oracle. This is the
// offline phase; expect it to take orders of magnitude longer than the
// online Suggest calls it enables.
func NewDesigner(ds *Dataset, oracle Oracle, cfg Config) (*Designer, error) {
	if ds == nil || oracle == nil {
		return nil, errors.New("fairrank: nil dataset or oracle")
	}
	if ds.N() < 2 {
		return nil, fmt.Errorf("fairrank: dataset has %d items; need at least 2", ds.N())
	}
	mode := cfg.Mode
	if mode == ModeAuto {
		if ds.D() == 2 {
			mode = Mode2D
		} else {
			mode = ModeApprox
		}
	}
	eng, err := buildEngine(mode, ds, oracle, cfg)
	if err != nil {
		return nil, err
	}
	return &Designer{ds: ds, oracle: oracle, mode: mode, refine: cfg.RefineQueries, eng: eng, cfg: cfg, revision: ds.Fingerprint()}, nil
}

// Mode returns the engine the designer is using.
func (d *Designer) Mode() Mode { return d.mode }

// Satisfiable reports whether any satisfactory ranking function exists.
func (d *Designer) Satisfiable() bool { return d.eng.Satisfiable() }

// IsFair evaluates the oracle directly on the ordering induced by w,
// ranking only as far as the oracle reads.
func (d *Designer) IsFair(w []float64) (bool, error) {
	var bufs ranking.Buffers
	order, err := bufs.Rank(d.ds, geom.Vector(w), fairness.Reads(d.oracle))
	if err != nil {
		return false, err
	}
	return d.oracle.Check(order), nil
}

// Rank returns the item indices ordered by descending score under w.
func (d *Designer) Rank(w []float64) ([]int, error) {
	return ranking.Order(d.ds, geom.Vector(w))
}

// Suggest answers a design query: it returns the query unchanged when it is
// already fair, the closest satisfactory alternative otherwise, or
// ErrUnsatisfiable when no fair linear function exists at all.
func (d *Designer) Suggest(w []float64) (*Suggestion, error) {
	out, dist, err := d.eng.Suggest(geom.Vector(w))
	if err != nil {
		if errors.Is(err, engine.ErrUnsatisfiable) {
			err = ErrUnsatisfiable
		}
		return nil, err
	}
	return &Suggestion{Weights: out, Distance: dist, AlreadyFair: dist == 0}, nil
}

// QualityBound returns the engine's additive approximation bound on Suggest
// distances: Theorem 6 for ModeApprox designers, 0 for the exact engines.
func (d *Designer) QualityBound() float64 { return d.eng.QualityBound() }

// DriftReport summarizes a Revalidate pass; see engine.DriftReport.
type DriftReport = engine.DriftReport

// Revalidate spot-checks the designer's index against a possibly-updated
// dataset (the §1 design loop: reuse the scheme while the data distribution
// holds, verify periodically, rebuild on drift). Every engine implements it
// over its own stored witnesses: Mode2D probes interval midpoints, ModeExact
// probes region witnesses, and ModeApprox re-probes a sample of the marked
// grid cells at their stored functions.
func (d *Designer) Revalidate(ds *Dataset) (DriftReport, error) {
	return d.eng.Revalidate(ds, d.oracle)
}

// BatchPlanStats is a snapshot of the adaptive batch planner behind
// SuggestBatch: how many batches were planned versus passed through, how
// many query slots were answered by duplicate fan-out or a resumed kernel
// cursor, the most recent chunk size, and the two feedback EWMAs the
// decisions are made from.
type BatchPlanStats struct {
	// Batches counts SuggestBatch calls; PlannedBatches those that got a
	// dedup/sort schedule; SortedBatches those whose schedule was
	// locality-sorted.
	Batches, PlannedBatches, SortedBatches int64
	// Slots counts query slots seen; DedupedSlots those answered by fanning
	// out a duplicate's answer; ResumeHits the kernel lookups that reused a
	// validated cursor instead of a from-scratch descent.
	Slots, DedupedSlots, ResumeHits int64
	// LastChunkSize is the chunk size of the most recent batch.
	LastChunkSize int64
	// KernelNsEWMA and DupRateEWMA are the planner's two observables: the
	// smoothed kernel cost per scheduled query and the smoothed
	// duplicate-slot fraction.
	KernelNsEWMA, DupRateEWMA float64
}

// BatchPlanStats snapshots the batch planner's counters.
func (d *Designer) BatchPlanStats() BatchPlanStats {
	st := d.plan.Stats()
	return BatchPlanStats{
		Batches:        st.Batches,
		PlannedBatches: st.PlannedBatches,
		SortedBatches:  st.SortedBatches,
		Slots:          st.Slots,
		DedupedSlots:   st.DedupedSlots,
		ResumeHits:     st.ResumeHits,
		LastChunkSize:  st.LastChunkSize,
		KernelNsEWMA:   st.KernelNsEWMA,
		DupRateEWMA:    st.DupRateEWMA,
	}
}

// AngularDistance returns the angular distance (radians) between two weight
// vectors — the similarity measure the whole system optimizes.
func AngularDistance(w1, w2 []float64) (float64, error) {
	return geom.RayDistance(geom.Vector(w1), geom.Vector(w2))
}

// Rank orders the dataset's item indices by descending score under w,
// without building a Designer. Ties break by item index.
func Rank(ds *Dataset, w []float64) ([]int, error) {
	return ranking.Order(ds, geom.Vector(w))
}

// Scores computes f_w(t) for every item.
func Scores(ds *Dataset, w []float64) ([]float64, error) {
	return ranking.Scores(ds, geom.Vector(w))
}
