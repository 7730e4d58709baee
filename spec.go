package fairrank

import (
	"errors"
	"fmt"

	"fairrank/internal/service"
)

// This file defines the declarative JSON specs the serving layer
// (fairrank.Server, cmd/fairrankd) uses to describe datasets, oracles, and
// designer configurations — both over the wire and in the data directory's
// manifests, so a restarted server can rebuild exactly what it was serving.

// DatasetSpec is the JSON shape of a dataset: scoring attribute names, item
// rows, and categorical type attributes.
type DatasetSpec struct {
	Scoring []string       `json:"scoring"`
	Rows    [][]float64    `json:"rows"`
	Types   []TypeAttrSpec `json:"types,omitempty"`
	// Revision is the dataset's revision fingerprint: the content fingerprint
	// at registration, chained through every applied patch (ChainRevision).
	// It rides along in the replicated metadata and the data-dir manifests so
	// every node agrees on the patch lineage, not just the current bytes;
	// 0 — specs written before datasets became patchable — means "the content
	// fingerprint".
	Revision uint64 `json:"revision,omitempty"`
}

// TypeAttrSpec is one categorical attribute of a DatasetSpec.
type TypeAttrSpec struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels"`
	Values []int    `json:"values"`
}

// Build materializes the dataset.
func (s DatasetSpec) Build() (*Dataset, error) {
	ds, err := NewDataset(s.Scoring, s.Rows)
	if err != nil {
		return nil, err
	}
	for _, ta := range s.Types {
		if err := ds.AddTypeAttr(ta.Name, ta.Labels, ta.Values); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// SpecOfDataset is Build's inverse: the spec serving a dataset back out of
// the API (and into the data directory's manifests).
func SpecOfDataset(ds *Dataset) DatasetSpec {
	spec := DatasetSpec{Scoring: append([]string(nil), ds.ScoringNames()...)}
	spec.Rows = make([][]float64, ds.N())
	for i := range spec.Rows {
		spec.Rows[i] = append([]float64(nil), ds.Item(i)...)
	}
	for _, ta := range ds.TypeAttrs() {
		spec.Types = append(spec.Types, TypeAttrSpec{
			Name:   ta.Name,
			Labels: append([]string(nil), ta.Labels...),
			Values: append([]int(nil), ta.Values...),
		})
	}
	return spec
}

// GroupBoundSpec is the JSON shape of a GroupBound; omitted Min/Max mean
// "unbounded" (−1).
type GroupBoundSpec struct {
	Group string `json:"group"`
	Min   *int   `json:"min,omitempty"`
	Max   *int   `json:"max,omitempty"`
}

func (b GroupBoundSpec) bound() GroupBound {
	gb := GroupBound{Group: b.Group, Min: -1, Max: -1}
	if b.Min != nil {
		gb.Min = *b.Min
	}
	if b.Max != nil {
		gb.Max = *b.Max
	}
	return gb
}

// OracleSpec declares a fairness oracle. Kind selects the constructor:
//
//   - "topk":         Attr, K, Bounds            → TopKOracle
//   - "max_share":    Attr, Group, TopFrac, Slack → MaxShare
//   - "min_share":    Attr, Group, TopFrac, Share → MinShare
//   - "proportional": Attr, TopFrac, Slack        → Proportional
//   - "prefix":       Attr, Group, K, P, PrefixSlack → prefix fairness
//   - "all" / "any":  Of (member specs)           → AllOf / AnyOf
type OracleSpec struct {
	Kind        string           `json:"kind"`
	Attr        string           `json:"attr,omitempty"`
	Group       string           `json:"group,omitempty"`
	K           int              `json:"k,omitempty"`
	TopFrac     float64          `json:"top_frac,omitempty"`
	Slack       float64          `json:"slack,omitempty"`
	Share       float64          `json:"share,omitempty"`
	P           float64          `json:"p,omitempty"`
	PrefixSlack int              `json:"prefix_slack,omitempty"`
	Bounds      []GroupBoundSpec `json:"bounds,omitempty"`
	Of          []OracleSpec     `json:"of,omitempty"`
}

// Build materializes the oracle against the dataset.
func (s OracleSpec) Build(ds *Dataset) (Oracle, error) {
	switch s.Kind {
	case "topk":
		bounds := make([]GroupBound, len(s.Bounds))
		for i, b := range s.Bounds {
			bounds[i] = b.bound()
		}
		return TopKOracle(ds, s.Attr, s.K, bounds)
	case "max_share":
		return MaxShare(ds, s.Attr, s.Group, s.TopFrac, s.Slack)
	case "min_share":
		return MinShare(ds, s.Attr, s.Group, s.TopFrac, s.Share)
	case "proportional":
		return Proportional(ds, s.Attr, s.TopFrac, s.Slack)
	case "prefix":
		return PrefixOracle(ds, s.Attr, s.Group, s.K, s.P, s.PrefixSlack)
	case "all", "any":
		if len(s.Of) == 0 {
			return nil, fmt.Errorf("fairrank: oracle kind %q needs members in \"of\"", s.Kind)
		}
		members := make([]Oracle, len(s.Of))
		for i, m := range s.Of {
			o, err := m.Build(ds)
			if err != nil {
				return nil, err
			}
			members[i] = o
		}
		if s.Kind == "all" {
			return AllOf(members...), nil
		}
		return AnyOf(members...), nil
	case "":
		return nil, errors.New("fairrank: oracle spec is missing \"kind\"")
	default:
		return nil, fmt.Errorf("fairrank: unknown oracle kind %q", s.Kind)
	}
}

// ConfigSpec is the JSON shape of Config, with the engine mode as a string
// ("auto", "2d", "exact", "approx").
type ConfigSpec struct {
	Mode                   string `json:"mode,omitempty"`
	Cells                  int    `json:"cells,omitempty"`
	Seed                   int64  `json:"seed,omitempty"`
	PruneTopK              int    `json:"prune_top_k,omitempty"`
	MaxHyperplanes         int    `json:"max_hyperplanes,omitempty"`
	DisableArrangementTree bool   `json:"disable_arrangement_tree,omitempty"`
	CellRegionCap          int    `json:"cell_region_cap,omitempty"`
	Workers                int    `json:"workers,omitempty"`
	RefineQueries          bool   `json:"refine_queries,omitempty"`
	// RepairChurnFrac bounds how large a dataset patch (removals plus
	// additions, as a fraction of the pre-patch item count) may be spliced
	// into a "2d" designer's index incrementally; larger deltas rebuild, and
	// "exact" and "approx" designers always rebuild. 0 picks
	// DefaultRepairChurnFrac, negative disables incremental repair.
	RepairChurnFrac float64 `json:"repair_churn_frac,omitempty"`
}

// Build materializes the Config.
func (s ConfigSpec) Build() (Config, error) {
	cfg := Config{
		Cells:                  s.Cells,
		Seed:                   s.Seed,
		PruneTopK:              s.PruneTopK,
		MaxHyperplanes:         s.MaxHyperplanes,
		DisableArrangementTree: s.DisableArrangementTree,
		CellRegionCap:          s.CellRegionCap,
		Workers:                s.Workers,
		RefineQueries:          s.RefineQueries,
		RepairChurnFrac:        s.RepairChurnFrac,
	}
	switch s.Mode {
	case "", "auto":
		cfg.Mode = ModeAuto
	case "2d":
		cfg.Mode = Mode2D
	case "exact":
		cfg.Mode = ModeExact
	case "approx":
		cfg.Mode = ModeApprox
	default:
		return Config{}, fmt.Errorf("fairrank: unknown engine mode %q", s.Mode)
	}
	return cfg, nil
}

// DesignerSpec declares a designer: the dataset it serves, the fairness
// oracle, and the engine configuration.
type DesignerSpec struct {
	Dataset string     `json:"dataset"`
	Oracle  OracleSpec `json:"oracle"`
	Config  ConfigSpec `json:"config,omitempty"`
}

// ClusterStatus is the wire shape of GET /cluster: one node's view of the
// ring, who owns which designer, and the per-shard metrics rollup.
type ClusterStatus struct {
	NodeID string `json:"node_id"`
	// RingVersion is the version of the membership the node's ring was
	// built from: 0 for the static boot configuration, then the version of
	// the latest applied ring/members entry. Nodes whose RingVersion
	// matches agree on ownership of every designer.
	RingVersion uint64 `json:"ring_version"`
	// MetaEntries counts the replicated metadata entries this node holds
	// (tombstones included) — equal counts across nodes after an
	// anti-entropy round indicate converged metadata.
	MetaEntries int `json:"meta_entries"`
	// Replicas is the effective replication factor k (followers per
	// designer): the -replicas flag as converged through the gossiped
	// replicas/config entry. 0 means owner-only serving.
	Replicas int            `json:"replicas"`
	Members  []MemberStatus `json:"members"`
	Shards   []ShardStatus  `json:"shards"`
}

// MemberStatus is one ring member as seen from the reporting node: identity,
// last known health, and the designers the reporting node would route to it.
type MemberStatus struct {
	ID        string   `json:"id"`
	URL       string   `json:"url,omitempty"`
	Self      bool     `json:"self,omitempty"`
	Healthy   bool     `json:"healthy"`
	LastError string   `json:"last_error,omitempty"`
	Designers []string `json:"designers,omitempty"`
	// ReplicaFor lists the designers this member follows as a read replica
	// (owner + ReplicaFor partition the read traffic for each designer).
	ReplicaFor []string `json:"replica_for,omitempty"`
}

// ShardStatus is one in-process shard registry: the designers it holds and
// their aggregated serving metrics.
type ShardStatus struct {
	Index     int                   `json:"index"`
	Designers []string              `json:"designers"`
	Stats     service.RegistryStats `json:"stats"`
}
