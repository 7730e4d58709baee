package fairrank

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/datagen"
	"fairrank/internal/service"
)

// logCapture is a slog.Handler collecting the messages of Server
// cluster-lifecycle log lines so tests can assert handoff-vs-rebuild
// decisions. The lines they match come from the printf-style sites, which
// put their whole text in the message, so attributes are dropped.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) Enabled(context.Context, slog.Level) bool { return true }

func (lc *logCapture) Handle(_ context.Context, r slog.Record) error {
	lc.mu.Lock()
	lc.lines = append(lc.lines, r.Message)
	lc.mu.Unlock()
	return nil
}

func (lc *logCapture) WithAttrs([]slog.Attr) slog.Handler { return lc }

func (lc *logCapture) WithGroup(string) slog.Handler { return lc }

func (lc *logCapture) any(sub string) bool { return lc.anyAfter(0, sub) }

// mark returns the current line count, for anyAfter assertions scoped to
// "lines logged after this point".
func (lc *logCapture) mark() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.lines)
}

func (lc *logCapture) anyAfter(mark int, sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines[min(mark, len(lc.lines)):] {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// gossipNode is one live fairrankd-style node with anti-entropy enabled and
// a restartable HTTP front — restartHTTP simulates a node vanishing and
// returning on the same address.
type gossipNode struct {
	srv  *Server
	addr string
	url  string
	http *http.Server
	logs *logCapture
}

func (n *gossipNode) stopHTTP() { n.http.Close() }

func (n *gossipNode) restartHTTP(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	n.http = &http.Server{Handler: n.srv.Handler()}
	go n.http.Serve(l) //nolint:errcheck // closed by cleanup
}

func (n *gossipNode) stop() {
	n.http.Close()
	n.srv.Close()
}

// startGossipNode boots one node. Peers may be nil (it then joins at runtime
// or stays single).
func startGossipNode(t *testing.T, id string, peers []ClusterPeer, antiEntropy time.Duration) *gossipNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	logs := &logCapture{}
	srv, err := NewClusterServer(ClusterConfig{
		NodeID:              id,
		Shards:              2,
		Peers:               peers,
		AdvertiseURL:        "http://" + addr,
		HealthInterval:      50 * time.Millisecond,
		AntiEntropyInterval: antiEntropy,
		Logger:              slog.New(logs),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l) //nolint:errcheck // closed by cleanup
	n := &gossipNode{srv: srv, addr: addr, url: "http://" + addr, http: hs, logs: logs}
	t.Cleanup(n.stop)
	return n
}

// gossipSpecs builds one designer spec per engine mode over the right-sized
// dataset, with fixed seeds so rebuilt and handed-off indexes agree bit for
// bit.
func gossipSpecs() map[string]DesignerSpec {
	oracle := OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3}
	return map[string]DesignerSpec{
		"gossip-2d":     {Dataset: "biased", Oracle: oracle, Config: ConfigSpec{Mode: "2d"}},
		"gossip-exact":  {Dataset: "uniform", Oracle: oracle, Config: ConfigSpec{Mode: "exact", Seed: 4}},
		"gossip-approx": {Dataset: "uniform", Oracle: oracle, Config: ConfigSpec{Mode: "approx", Cells: 150, MaxHyperplanes: 300, Seed: 4}},
	}
}

// gossipDatasets registers the two datasets the specs reference.
func gossipDatasets(t *testing.T, srv *Server) {
	t.Helper()
	biased, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := datagen.Uniform(20, 3, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("biased", biased); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("uniform", uniform); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// suggestVia queries one designer over HTTP through the given node.
func suggestVia(t *testing.T, url, id string, w []float64) suggestionJSON {
	t.Helper()
	var got suggestionJSON
	code := postJSON(t, url+"/v1/designers/"+id+"/suggest", suggestRequest{Weights: w}, &got)
	if code != http.StatusOK {
		t.Fatalf("suggest %s via %s: HTTP %d (%s)", id, url, code, got.Error)
	}
	return got
}

func sameSuggestion(t *testing.T, ctxt string, got suggestionJSON, want *Suggestion) {
	t.Helper()
	if got.Distance != want.Distance || got.AlreadyFair != want.AlreadyFair {
		t.Fatalf("%s: %+v differs from reference %+v", ctxt, got, want)
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: weights %v vs %v", ctxt, got.Weights, want.Weights)
	}
	for k := range want.Weights {
		if got.Weights[k] != want.Weights[k] {
			t.Fatalf("%s: weights %v differ from %v (must be byte-identical)", ctxt, got.Weights, want.Weights)
		}
	}
}

// A create issued while a peer's process is gone must converge onto the
// restarted (empty) peer through the anti-entropy digest exchange — no
// operator re-issue, no shared data dir — and answers through the repaired
// peer must be byte-identical for all three engines.
func TestAntiEntropyRepairsMissedCreate(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	b := startGossipNode(t, "node-b", nil, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}

	// B vanishes entirely: process state is lost.
	b.stop()

	// Creates land on A while B is down; the replication fan-out fails and
	// marks B unhealthy, so A owns and builds everything.
	gossipDatasets(t, a.srv)
	specs := gossipSpecs()
	for id, spec := range specs {
		if err := a.srv.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
		if err := a.srv.WaitReady(t.Context(), id); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]*Suggestion{}
	queries := map[string][]float64{
		"gossip-2d":     {0.5, 0.5},
		"gossip-exact":  {0.4, 0.3, 0.3},
		"gossip-approx": {0.4, 0.3, 0.3},
	}
	for id, q := range queries {
		s, err := a.srv.Suggest(id, q)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = s
	}

	// B returns as a fresh process on the same address: empty metadata,
	// static peer config pointing at A.
	b2 := startGossipNode(t, "node-b", nil, 60*time.Millisecond)
	if err := b2.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}

	// Digests must converge within a few rounds: B learns both datasets and
	// all three designers (1 ring + 2 dataset + 3 designer entries).
	waitFor(t, 15*time.Second, "anti-entropy convergence", func() bool {
		return b2.srv.meta.Len() == a.srv.meta.Len() && len(b2.srv.DesignerIDs()) == len(specs)
	})
	// Every designer must become servable through B — locally activated for
	// the ones B now owns (handoff from A, rebuild fallback), forwarded for
	// the rest — with byte-identical answers.
	for id, q := range queries {
		var got suggestionJSON
		waitFor(t, 60*time.Second, "designer "+id+" servable via repaired B", func() bool {
			code := postJSON(t, b2.url+"/v1/designers/"+id+"/suggest", suggestRequest{Weights: q}, &got)
			return code == http.StatusOK
		})
		sameSuggestion(t, "repaired "+id+" via B", got, want[id])
	}
}

// ringOwnerOf computes rendezvous ownership among a hypothetical member set,
// for picking designer ids that migrate on a join.
func ringOwnerOf(t *testing.T, name string, memberIDs ...string) string {
	t.Helper()
	members := make([]cluster.Member, len(memberIDs))
	for i, id := range memberIDs {
		members[i] = cluster.Member{ID: id}
	}
	ring, err := cluster.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	return ring.Owner(name).ID
}

// nameOwnedBy finds a designer id with the given prefix that the
// hypothetical ring assigns to wantOwner.
func nameOwnedBy(t *testing.T, prefix, wantOwner string, memberIDs ...string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if ringOwnerOf(t, id, memberIDs...) == wantOwner {
			return id
		}
	}
	t.Fatalf("no %s-* name hashes to %s", prefix, wantOwner)
	return ""
}

// A node joining at runtime must take ownership of its share of designers by
// index handoff — streaming the old owner's persisted index, not rebuilding —
// and serve byte-identical answers, for all three engines.
func TestJoinWithIndexHandoffByteIdentical(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	gossipDatasets(t, a.srv)

	// Designer ids chosen so each engine's designer migrates to node-c when
	// it joins the two-member ring.
	oracle := OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3}
	specs := map[string]DesignerSpec{
		nameOwnedBy(t, "join-2d", "node-c", "node-a", "node-c"): {
			Dataset: "biased", Oracle: oracle, Config: ConfigSpec{Mode: "2d"}},
		nameOwnedBy(t, "join-exact", "node-c", "node-a", "node-c"): {
			Dataset: "uniform", Oracle: oracle, Config: ConfigSpec{Mode: "exact", Seed: 4}},
		nameOwnedBy(t, "join-approx", "node-c", "node-a", "node-c"): {
			Dataset: "uniform", Oracle: oracle, Config: ConfigSpec{Mode: "approx", Cells: 150, MaxHyperplanes: 300, Seed: 4}},
	}
	queries := map[string][]float64{}
	want := map[string]*Suggestion{}
	for id, spec := range specs {
		if err := a.srv.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
		if err := a.srv.WaitReady(t.Context(), id); err != nil {
			t.Fatal(err)
		}
		q := []float64{0.5, 0.5}
		if spec.Dataset == "uniform" {
			q = []float64{0.4, 0.3, 0.3}
		}
		queries[id] = q
		s, err := a.srv.Suggest(id, q)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = s
	}

	c := startGossipNode(t, "node-c", nil, 60*time.Millisecond)
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}

	// Every designer must surface on C via handoff: a ready local entry,
	// loaded — not rebuilt — from A's index stream.
	for id := range specs {
		waitFor(t, 60*time.Second, "handoff of "+id+" onto C", func() bool {
			entry, ok := c.srv.shard(id).Get(id)
			if !ok {
				return false
			}
			st := entry.Status()
			return st.Status == "ready"
		})
		if !c.logs.any(fmt.Sprintf("handoff: designer %q index loaded", id)) {
			t.Fatalf("designer %s was not loaded by handoff; log:\n%s", id, strings.Join(c.logs.lines, "\n"))
		}
		if c.logs.any(fmt.Sprintf("rebuild: designer %q", id)) {
			t.Fatalf("designer %s was rebuilt on the new owner; log:\n%s", id, strings.Join(c.logs.lines, "\n"))
		}
		entry, _ := c.srv.shard(id).Get(id)
		if st := entry.Status(); st.Rebuilds != 0 {
			t.Fatalf("designer %s: %d rebuilds on the new owner, want 0", id, st.Rebuilds)
		}
	}

	// Byte-identical answers from both entry points, before vs after join.
	for id, q := range queries {
		sameSuggestion(t, "post-join "+id+" via C", suggestVia(t, c.url, id, q), want[id])
		sameSuggestion(t, "post-join "+id+" via A", suggestVia(t, a.url, id, q), want[id])
	}

	// Both nodes agree on the ring: version 1+, two members.
	if v := c.srv.router.RingVersion(); v == 0 {
		t.Fatal("joiner still on the static ring")
	}
	if got, want := len(c.srv.router.Members()), 2; got != want {
		t.Fatalf("joiner sees %d members, want %d", got, want)
	}
}

// A replicated tombstone must evict a designer everywhere and stop a replica
// that missed the delete from resurrecting it.
func TestTombstoneStopsResurrection(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	// B never initiates anti-entropy itself: its repair must come from A's
	// exchanges, which is exactly the resurrection-risk direction (B holds a
	// stale live entry and offers it back).
	b := startGossipNode(t, "node-b", nil, 0)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}

	gossipDatasets(t, a.srv)
	id := "tombstone-designer"
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := a.srv.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "create replicated to B", func() bool {
		_, ok := b.srv.meta.Get(metaKeyDesigner(id))
		return ok
	})

	// Partition B, delete on A, then heal the partition.
	b.stopHTTP()
	req, err := http.NewRequest(http.MethodDelete, a.url+"/v1/designers/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	if e, _ := a.srv.meta.Get(metaKeyDesigner(id)); !e.Deleted {
		t.Fatalf("no tombstone on A: %+v", e)
	}
	b.restartHTTP(t)

	// A's next exchanges must push the tombstone to B — and must not pull
	// B's stale live entry back.
	waitFor(t, 15*time.Second, "tombstone convergence on B", func() bool {
		e, ok := b.srv.meta.Get(metaKeyDesigner(id))
		return ok && e.Deleted
	})
	if e, _ := a.srv.meta.Get(metaKeyDesigner(id)); !e.Deleted {
		t.Fatal("A resurrected the deleted designer from B's stale copy")
	}
	for _, n := range []*gossipNode{a, b} {
		if _, err := n.srv.DesignerStatus(id); err == nil {
			t.Fatalf("deleted designer still answers status on %s", n.srv.router.NodeID())
		}
		if _, ok := n.srv.shard(id).Get(id); ok {
			t.Fatalf("deleted designer still has a registry entry on %s", n.srv.router.NodeID())
		}
	}
}

// A spec change that converges through anti-entropy (a delete + re-create
// that happened while this node was unreachable collapses into one live
// entry with a new payload) must rebuild the serving index over the new
// spec — not keep answering from the old designer's index forever.
func TestGossipSpecChangeRebuildsServingIndex(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	gossipDatasets(t, srv)
	id := "spec-change"
	oracle := func(share float64) OracleSpec {
		return OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: share}
	}
	specA := DesignerSpec{Dataset: "biased", Oracle: oracle(0.3), Config: ConfigSpec{Mode: "2d"}}
	specB := DesignerSpec{Dataset: "biased", Oracle: oracle(0.45), Config: ConfigSpec{Mode: "2d"}}
	if err := srv.CreateDesigner(id, specA); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}

	ref := NewServer()
	gossipDatasets(t, ref)
	if err := ref.CreateDesigner(id, specB); err != nil {
		t.Fatal(err)
	}
	if err := ref.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.9, 0.1}
	want, err := ref.Suggest(id, q)
	if err != nil {
		t.Fatal(err)
	}

	// The converged remote state: one live entry with specB at a version
	// past everything this node holds (v1 create + a v2 tombstone it missed).
	payload, err := json.Marshal(specB)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.applyEntries([]cluster.MetaEntry{{Key: metaKeyDesigner(id), Version: 3, Payload: payload}}); n != 1 {
		t.Fatalf("applied %d entries, want 1", n)
	}
	waitFor(t, 60*time.Second, "rebuild over the new spec", func() bool {
		entry, ok := srv.shard(id).Get(id)
		if !ok {
			return false
		}
		st := entry.Status()
		if st.Rebuilds < 1 || st.Status != "ready" {
			return false
		}
		got, err := srv.Suggest(id, q)
		if err != nil || got.Distance != want.Distance || len(got.Weights) != len(want.Weights) {
			return false
		}
		for k := range want.Weights {
			if got.Weights[k] != want.Weights[k] {
				return false
			}
		}
		return true
	})
}

// Replicated-metadata versions must survive a restart: tombstones are
// restored (a peer re-offering its stale live copy cannot resurrect a
// deleted designer) and re-loaded specs resume at their persisted versions
// instead of dropping back to 1 below the rest of the cluster.
func TestMetaVersionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := NewServer()
	gossipDatasets(t, srv1)
	id := "restart-designer"
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := srv1.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	if err := srv1.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	stale, _ := srv1.meta.Get(metaKeyDesigner(id)) // the live v1 a slow peer might hold
	if err := srv1.DeleteDesigner(id); err != nil {
		t.Fatal(err)
	}
	if err := srv1.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2 := NewServer()
	defer srv2.Close()
	if err := srv2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	e, ok := srv2.meta.Get(metaKeyDesigner(id))
	if !ok || !e.Deleted || e.Version < 2 {
		t.Fatalf("tombstone not restored after restart: %+v (ok=%v)", e, ok)
	}
	// The stale live copy must lose against the restored tombstone.
	if _, changed := srv2.meta.Apply(stale); changed {
		t.Fatal("restart reset the version vector: a stale peer copy resurrected the designer")
	}
	// A deliberate re-create supersedes the tombstone and serves again.
	if err := srv2.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	if e, _ := srv2.meta.Get(metaKeyDesigner(id)); e.Deleted || e.Version <= 2 {
		t.Fatalf("re-create did not supersede the tombstone: %+v", e)
	}
	if err := srv2.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	// Re-loaded live specs resume at their persisted versions too.
	if e, _ := srv2.meta.Get(metaKeyDataset("biased")); e.Version < 1 || e.Deleted {
		t.Fatalf("dataset entry not restored: %+v", e)
	}
}

// A draining node must push its indexes to their next owners before leaving:
// the survivor serves byte-identically with zero rebuilds.
func TestLeaveDrainPushesIndexes(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	b := startGossipNode(t, "node-b", nil, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	gossipDatasets(t, a.srv)

	id := nameOwnedBy(t, "drain", "node-b", "node-a", "node-b")
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := a.srv.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	// The owner (B) builds; wait through A's forwarding status poll.
	waitFor(t, 60*time.Second, "designer built on owner B", func() bool {
		entry, ok := b.srv.shard(id).Get(id)
		if !ok {
			return false
		}
		st := entry.Status()
		return st.Status == "ready"
	})
	want, err := b.srv.Suggest(id, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}

	if err := b.srv.LeaveCluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.stop()

	// A inherited the designer with the pushed index — ready, no rebuild.
	waitFor(t, 30*time.Second, "index handed to A", func() bool {
		entry, ok := a.srv.shard(id).Get(id)
		if !ok {
			return false
		}
		return entry.Status().Status == "ready"
	})
	if !a.logs.any(fmt.Sprintf("handoff: designer %q index received", id)) {
		t.Fatalf("A did not receive a pushed index; log:\n%s", strings.Join(a.logs.lines, "\n"))
	}
	// Landing is logged before activation: only the promotion proves the
	// drained copy is what serves.
	if !a.logs.any(fmt.Sprintf("promote: designer %q", id)) || a.logs.any(fmt.Sprintf("rebuild: designer %q", id)) {
		t.Fatalf("A did not promote the drained copy; log:\n%s", strings.Join(a.logs.lines, "\n"))
	}
	entry, _ := a.srv.shard(id).Get(id)
	if st := entry.Status(); st.Rebuilds != 0 {
		t.Fatalf("survivor rebuilt (%d) instead of loading the pushed index", st.Rebuilds)
	}
	sameSuggestion(t, "post-drain via A", suggestVia(t, a.url, id, []float64{0.5, 0.5}), want)
	// B is gone from A's ring.
	for _, m := range a.srv.router.Members() {
		if m.ID == "node-b" {
			t.Fatal("left node still on the survivor's ring")
		}
	}
}

// A join moves a designer off the node that built it, which keeps the index
// as a warm standby; when the joiner drains, its copy goes back there. The
// standby keeps serving, byte-identically, and with k = 0 the drained copy,
// which promotion could never use next to a serving entry, is not kept.
func TestDrainBackToStandbyKeepsNoCopy(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	gossipDatasets(t, a.srv)
	id := nameOwnedBy(t, "standby", "node-c", "node-a", "node-c")
	if err := a.srv.CreateDesigner(id, gossipSpecs()["gossip-2d"]); err != nil {
		t.Fatal(err)
	}
	if err := a.srv.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.5}
	want, err := a.srv.Suggest(id, q)
	if err != nil {
		t.Fatal(err)
	}
	c := startGossipNode(t, "node-c", nil, 60*time.Millisecond)
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "designer handed to C", func() bool {
		entry, ok := c.srv.shard(id).Get(id)
		return ok && entry.Status().Status == service.StatusReady
	})
	if err := c.srv.LeaveCluster(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := c.srv.router.Stats().HandoffPushes.Load(); got != 1 {
		t.Fatalf("C pushed %d indexes on its drain, want 1", got)
	}
	c.stop()
	if _, held := a.srv.replicas.Get(id); held {
		t.Fatal("A kept the drained copy beside the standby entry that serves")
	}
	sameSuggestion(t, "standby after the drain", suggestVia(t, a.url, id, q), want)
}

// blockedIndexWriters counts goroutines stuck writing a SaveIndex stream
// into a pipe nobody reads.
func blockedIndexWriters() int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		return -1
	}
	n := 0
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "io.(*pipe).write") && strings.Contains(g, "SaveIndex") {
			n++
		}
	}
	return n
}

// A drain whose heir refuses connections fails every push before the body is
// read. Each failed push must still release its SaveIndex writer; a writer
// left blocked on the pipe would live forever and pin its engine.
func TestDrainToClosedPortLeavesNoIndexWriter(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	heir := "http://" + l.Addr().String()
	l.Close() // nothing listens there any more: connections are refused
	// No health loop: the heir stays healthy in B's view, so the drain
	// really pushes to it.
	b, err := NewClusterServer(ClusterConfig{NodeID: "node-b", Peers: []ClusterPeer{{ID: "node-a", URL: heir}}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gossipDatasets(t, b)
	for mode, spec := range gossipSpecs() {
		id := nameOwnedBy(t, "leak-"+mode, "node-b", "node-a", "node-b")
		if err := b.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
		if err := b.WaitReady(t.Context(), id); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.LeaveCluster(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := b.router.Stats().HandoffFailures.Load(); got != 3 {
		t.Fatalf("%d failed drain pushes, want 3 (one per designer)", got)
	}
	waitFor(t, 5*time.Second, "no SaveIndex writer blocked on a pipe", func() bool {
		return blockedIndexWriters() == 0
	})
}

// A node that joined with -join boots on a ring of itself alone. Restarted
// from its data dir it must still decide ownership on the persisted ring:
// the designer the seed owns stays dormant (no build), and its own designer
// serves from its saved index at once.
func TestRestartedJoinerKeepsPersistedOwnership(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	c := startGossipNode(t, "node-c", nil, 60*time.Millisecond)
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	waitForMembership(t, 2, a, c)
	gossipDatasets(t, a.srv)
	spec := gossipSpecs()["gossip-2d"]
	ownedByA := nameOwnedBy(t, "restart", "node-a", "node-a", "node-c")
	ownedByC := nameOwnedBy(t, "restart", "node-c", "node-a", "node-c")
	for _, id := range []string{ownedByA, ownedByC} {
		if err := a.srv.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 60*time.Second, "C serving its designer", func() bool {
		entry, ok := c.srv.shard(ownedByC).Get(ownedByC)
		return ok && entry.Status().Status == service.StatusReady && len(c.srv.DesignerIDs()) == 2
	})
	dir := t.TempDir()
	if err := c.srv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewClusterServer(ClusterConfig{NodeID: "node-c", AdvertiseURL: c.url})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if err := restarted.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if entry, held := restarted.shard(ownedByA).Get(ownedByA); held {
		t.Fatalf("restarted C activated %q, which A owns (status %q)", ownedByA, entry.Status().Status)
	}
	entry, ok := restarted.shard(ownedByC).Get(ownedByC)
	if !ok || entry.Status().Status != service.StatusReady {
		t.Fatalf("restarted C does not serve its own designer %q from disk (held=%v)", ownedByC, ok)
	}
}

// startReplicaNode is startGossipNode with a -replicas value: only the nodes
// booted with replicas > 0 originate the gossiped replication factor; the
// rest learn it through the config entry (which is itself under test).
func startReplicaNode(t *testing.T, id string, replicas int, antiEntropy time.Duration) *gossipNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	logs := &logCapture{}
	srv, err := NewClusterServer(ClusterConfig{
		NodeID: id,
		Shards: 2,
		// The probe timeout equals the interval; 50ms (what the other gossip
		// tests use) flaps under three nodes building concurrently, and an
		// ownership flap leaves warm-standby registry entries that would mask
		// the promote-vs-rebuild distinction these tests assert on.
		HealthInterval:      250 * time.Millisecond,
		AdvertiseURL:        "http://" + addr,
		AntiEntropyInterval: antiEntropy,
		Replicas:            replicas,
		Logger:              slog.New(logs),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l) //nolint:errcheck // closed by cleanup
	n := &gossipNode{srv: srv, addr: addr, url: "http://" + addr, http: hs, logs: logs}
	t.Cleanup(n.stop)
	return n
}

// With -replicas 1, every designer's owner must push its sealed index to its
// follower, reads through ANY node — owner, follower, or an outside-set
// third — must return byte-identical answers for all three engines, and the
// follower must have answered some of them from its local copy (the fan-out
// actually happened, it did not just forward everything back to the owner).
func TestReplicaReadsByteIdenticalAllEngines(t *testing.T) {
	a := startReplicaNode(t, "node-a", 1, 60*time.Millisecond)
	b := startReplicaNode(t, "node-b", 0, 60*time.Millisecond) // learns k from gossip
	c := startReplicaNode(t, "node-c", 0, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*gossipNode{"node-a": a, "node-b": b, "node-c": c}
	t.Cleanup(func() { dumpLogsOnFailure(t, byID) })

	// The replication factor is cluster metadata, not per-node config: only A
	// was flagged, B and C must converge on k=1 through the config entry.
	waitFor(t, 15*time.Second, "replica factor gossiped to unflagged nodes", func() bool {
		return b.srv.replicaFactor() == 1 && c.srv.replicaFactor() == 1
	})
	// Let membership fully settle (B learns of C's join via gossip) so every
	// node resolves the same replica set for every designer.
	waitForMembership(t, 3, a, b, c)

	gossipDatasets(t, a.srv)
	specs := gossipSpecs()
	for id, spec := range specs {
		if err := a.srv.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	queries := map[string][]float64{
		"gossip-2d":     {0.5, 0.5},
		"gossip-exact":  {0.4, 0.3, 0.3},
		"gossip-approx": {0.4, 0.3, 0.3},
	}

	for id, q := range queries {
		set := a.srv.router.ReplicaSet(id, 1)
		if len(set) != 2 {
			t.Fatalf("designer %q: replica set %v, want owner+1 follower", id, set)
		}
		owner, follower := byID[set[0].ID], byID[set[1].ID]

		// The owner builds; the follower must then receive the pushed copy
		// (push path, not pull — it was never unreachable).
		waitFor(t, 60*time.Second, "owner index for "+id, func() bool {
			entry, ok := owner.srv.shard(id).Get(id)
			return ok && entry.Status().Status == "ready"
		})
		waitFor(t, 30*time.Second, "replica copy of "+id+" on "+set[1].ID, func() bool {
			return follower.srv.replicas.Generation(id) > 0
		})

		want, err := owner.srv.Suggest(id, q)
		if err != nil {
			t.Fatal(err)
		}
		// Byte-identical through every node: the owner's registry, the
		// follower's replica copy, and the outside node's forward.
		for _, n := range []*gossipNode{a, b, c} {
			sameSuggestion(t, id+" via "+n.srv.router.NodeID(), suggestVia(t, n.url, id, q), want)
		}
	}

	// At least one read above hit a follower's local copy.
	total := int64(0)
	for _, n := range []*gossipNode{a, b, c} {
		total += n.srv.router.Stats().ReplicaReadsLocal.Load()
	}
	if total == 0 {
		t.Fatal("no read was served from a replica copy; fan-out never engaged")
	}
}

// Status and revalidate take the suggest route over a replica set of one:
// through a follower or an outside-set node they must reach the owner, which
// answers with its real status (never "remote") and runs the drift check on
// its own index. Only suggests are replica fan-out reads, so only they move
// replica_reads_forwarded.
func TestStatusAndRevalidateRouteToOwner(t *testing.T) {
	a := startReplicaNode(t, "node-a", 1, 60*time.Millisecond)
	b := startReplicaNode(t, "node-b", 0, 60*time.Millisecond)
	c := startReplicaNode(t, "node-c", 0, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*gossipNode{"node-a": a, "node-b": b, "node-c": c}
	t.Cleanup(func() { dumpLogsOnFailure(t, byID) })
	waitFor(t, 15*time.Second, "replica factor gossiped", func() bool {
		return b.srv.replicaFactor() == 1 && c.srv.replicaFactor() == 1
	})
	waitForMembership(t, 3, a, b, c)

	gossipDatasets(t, a.srv)
	const id = "gossip-2d"
	if err := a.srv.CreateDesigner(id, gossipSpecs()[id]); err != nil {
		t.Fatal(err)
	}
	set := a.srv.router.ReplicaSet(id, 1)
	if len(set) != 2 {
		t.Fatalf("replica set %v, want owner+1 follower", set)
	}
	owner, follower := byID[set[0].ID], byID[set[1].ID]
	var outside *gossipNode
	for nid, n := range byID {
		if nid != set[0].ID && nid != set[1].ID {
			outside = n
		}
	}
	waitFor(t, 60*time.Second, "owner index", func() bool {
		entry, ok := owner.srv.shard(id).Get(id)
		return ok && entry.Status().Status == service.StatusReady
	})
	waitFor(t, 30*time.Second, "replica copy on the follower", func() bool {
		return follower.srv.replicas.Generation(id) > 0
	})

	forwarded := func() int64 {
		total := int64(0)
		for _, n := range byID {
			total += n.srv.router.Stats().ReplicaReadsForwarded.Load()
		}
		return total
	}
	before := forwarded()
	for _, n := range []*gossipNode{follower, outside} {
		via := n.srv.router.NodeID()
		var st service.StatusInfo
		if code := doJSON(t, http.MethodGet, n.url+"/v1/designers/"+id+"/status", nil, &st); code != http.StatusOK {
			t.Fatalf("status via %s: HTTP %d", via, code)
		}
		if st.Status != service.StatusReady {
			t.Fatalf("status via %s: %q, want the owner's %q", via, st.Status, service.StatusReady)
		}
		var rv RevalidateResult
		if code := postJSON(t, n.url+"/v1/designers/"+id+"/revalidate", map[string]string{}, &rv); code != http.StatusOK {
			t.Fatalf("revalidate via %s: HTTP %d", via, code)
		}
		if !rv.Healthy || rv.Rebuilding {
			t.Fatalf("revalidate via %s: %+v, want a healthy check", via, rv)
		}
		// Answering locally would have activated a registry entry here.
		if _, held := n.srv.shard(id).Get(id); held {
			t.Fatalf("%s answered locally instead of routing to the owner", via)
		}
	}
	if got := forwarded(); got != before {
		t.Fatalf("replica_reads_forwarded moved %d -> %d for status/revalidate", before, got)
	}
	want, err := owner.srv.Suggest(id, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sameSuggestion(t, "suggest via outside node", suggestVia(t, outside.url, id, []float64{0.5, 0.5}), want)
	if got := forwarded(); got != before+1 {
		t.Fatalf("replica_reads_forwarded %d -> %d after one outside-set suggest, want +1", before, got)
	}
}

// A follower that lost its copy — a restart empties the in-memory replica
// store — while the owner's ack map still suppresses a re-push must get it
// back through the pull leg alone, and answer from it locally and
// byte-identically.
func TestFollowerPullRepairRestoresDroppedCopy(t *testing.T) {
	a := startReplicaNode(t, "node-a", 1, 60*time.Millisecond)
	b := startReplicaNode(t, "node-b", 0, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*gossipNode{"node-a": a, "node-b": b}
	t.Cleanup(func() { dumpLogsOnFailure(t, byID) })
	waitFor(t, 15*time.Second, "replica factor gossiped", func() bool {
		return b.srv.replicaFactor() == 1
	})
	waitForMembership(t, 2, a, b)

	gossipDatasets(t, a.srv)
	const id = "gossip-2d"
	if err := a.srv.CreateDesigner(id, gossipSpecs()[id]); err != nil {
		t.Fatal(err)
	}
	set := a.srv.router.ReplicaSet(id, 1)
	if len(set) != 2 {
		t.Fatalf("replica set %v, want owner+1 follower", set)
	}
	owner, follower := byID[set[0].ID], byID[set[1].ID]
	// Settled: the owner acked its push, the follower's copy is at least
	// that new, and no follower sync pass (which could be pulling) is in
	// flight.
	var gen uint64
	waitFor(t, 60*time.Second, "pushed copy acked and settled", func() bool {
		owner.srv.mu.RLock()
		acked := owner.srv.pushed[id][follower.srv.router.NodeID()]
		owner.srv.mu.RUnlock()
		gen = follower.srv.replicas.Generation(id)
		return acked > 0 && gen >= acked && !follower.srv.replicaBusy.Load()
	})
	pulls := follower.srv.router.Stats().ReplicaPulls.Load()
	pushes := owner.srv.router.Stats().ReplicaPushes.Load()
	mark := follower.logs.mark()

	follower.srv.replicas.Remove(id)
	repaired := fmt.Sprintf("replica: designer %q generation %d pulled from %s (repair)", id, gen, owner.srv.router.NodeID())
	waitFor(t, 30*time.Second, "pull repair of the dropped copy", func() bool {
		return follower.logs.anyAfter(mark, repaired)
	})
	if got := follower.srv.replicas.Generation(id); got < gen {
		t.Fatalf("repaired copy at generation %d, below the dropped %d", got, gen)
	}
	if got := follower.srv.router.Stats().ReplicaPulls.Load(); got != pulls+1 {
		t.Fatalf("replica pulls %d -> %d, want +1", pulls, got)
	}
	if got := owner.srv.router.Stats().ReplicaPushes.Load(); got != pushes {
		t.Fatalf("owner pushes moved %d -> %d: the repair was not the pull", pushes, got)
	}

	q := []float64{0.5, 0.5}
	want, err := owner.srv.Suggest(id, q)
	if err != nil {
		t.Fatal(err)
	}
	local := follower.srv.router.Stats().ReplicaReadsLocal.Load()
	sameSuggestion(t, "repaired copy via follower", suggestVia(t, follower.url, id, q), want)
	if got := follower.srv.router.Stats().ReplicaReadsLocal.Load(); got != local+1 {
		t.Fatalf("follower local reads %d -> %d: the suggest was not answered from the repaired copy", local, got)
	}
}

// POST /cluster/replica/{id} stores copies by generation. A push without a
// positive X-Fairrank-Generation is refused with a 400 instead of stored at
// generation 0, below every publication.
func TestReplicaPutRequiresGeneration(t *testing.T) {
	id := nameOwnedBy(t, "gen", "node-a", "node-a", "node-b")
	spec := gossipSpecs()["gossip-2d"]
	src := NewServer()
	defer src.Close()
	gossipDatasets(t, src)
	if err := src.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	if err := src.WaitReady(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	entry, _ := src.shard(id).Get(id)
	eng, err := entry.Engine()
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := eng.SaveIndex(&stream); err != nil {
		t.Fatal(err)
	}
	// The receiver holds the spec dormant: node-a owns the designer (no
	// health loop ever marks it down), as on a follower.
	srv, err := NewClusterServer(ClusterConfig{NodeID: "node-b", Peers: []ClusterPeer{{ID: "node-a", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gossipDatasets(t, srv)
	if err := srv.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	put := func(gen string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/cluster/replica/"+id, bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if gen != "" {
			req.Header.Set(cluster.GenerationHeader, gen)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, gen := range []string{"", "0", "seven"} {
		if code := put(gen); code != http.StatusBadRequest {
			t.Fatalf("push with generation header %q: HTTP %d, want 400", gen, code)
		}
	}
	if _, held := srv.replicas.Get(id); held {
		t.Fatal("a push without a generation was stored")
	}
	if code := put("7"); code != http.StatusOK {
		t.Fatalf("push at generation 7: HTTP %d, want 200", code)
	}
	if got := srv.replicas.Generation(id); got != 7 {
		t.Fatalf("copy stored at generation %d, want 7", got)
	}
}

// Killing an owner outright (no drain, no goodbye) must fail its designers
// over by PROMOTING the follower's pushed copy — generation preserved, zero
// rebuilds — and answers must stay byte-identical, for all three engines.
func TestOwnerKillPromotesReplicaNoRebuild(t *testing.T) {
	a := startReplicaNode(t, "node-a", 1, 60*time.Millisecond)
	b := startReplicaNode(t, "node-b", 0, 60*time.Millisecond)
	c := startReplicaNode(t, "node-c", 0, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*gossipNode{"node-a": a, "node-b": b, "node-c": c}
	t.Cleanup(func() { dumpLogsOnFailure(t, byID) })
	all := []string{"node-a", "node-b", "node-c"}

	waitFor(t, 15*time.Second, "replica factor gossiped", func() bool {
		return b.srv.replicaFactor() == 1 && c.srv.replicaFactor() == 1
	})
	waitForMembership(t, 3, a, b, c)

	gossipDatasets(t, a.srv)
	// Every engine mode, every designer owned by node-b — the node we kill.
	oracle := OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3}
	specs := map[string]DesignerSpec{
		nameOwnedBy(t, "promo-2d", "node-b", all...):     {Dataset: "biased", Oracle: oracle, Config: ConfigSpec{Mode: "2d"}},
		nameOwnedBy(t, "promo-exact", "node-b", all...):  {Dataset: "uniform", Oracle: oracle, Config: ConfigSpec{Mode: "exact", Seed: 4}},
		nameOwnedBy(t, "promo-approx", "node-b", all...): {Dataset: "uniform", Oracle: oracle, Config: ConfigSpec{Mode: "approx", Cells: 150, MaxHyperplanes: 300, Seed: 4}},
	}
	queries := map[string][]float64{}
	followers := map[string]*gossipNode{}
	for id, spec := range specs {
		if strings.HasPrefix(id, "promo-2d") {
			queries[id] = []float64{0.5, 0.5}
		} else {
			queries[id] = []float64{0.4, 0.3, 0.3}
		}
		if err := a.srv.CreateDesigner(id, spec); err != nil {
			t.Fatal(err)
		}
		set := a.srv.router.ReplicaSet(id, 1)
		if set[0].ID != "node-b" {
			t.Fatalf("designer %q owned by %s, want node-b", id, set[0].ID)
		}
		followers[id] = byID[set[1].ID]
	}

	want := map[string]*Suggestion{}
	pubGen := map[string]uint64{}
	for id, q := range queries {
		waitFor(t, 60*time.Second, "owner index for "+id, func() bool {
			entry, ok := b.srv.shard(id).Get(id)
			return ok && entry.Status().Status == "ready"
		})
		waitFor(t, 30*time.Second, "replica copy of "+id, func() bool {
			return followers[id].srv.replicas.Generation(id) > 0
		})
		s, err := b.srv.Suggest(id, q)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = s
		pub, ok := b.srv.publishedReplica(id)
		if !ok {
			t.Fatalf("designer %q has no publication entry", id)
		}
		pubGen[id] = pub.Generation
	}

	// The promote path is only provable if the followers hold nothing in
	// their registries yet — a warm-standby entry left by an ownership flap
	// would serve without promoting and void the assertions below.
	marks := map[string]int{}
	for id, fol := range followers {
		if _, ok := fol.srv.shard(id).Get(id); ok {
			t.Fatalf("follower %s already holds a registry entry for %q before the kill (ownership flapped during setup)",
				fol.srv.router.NodeID(), id)
		}
		marks[id] = fol.logs.mark()
	}

	// Kill the owner outright: process gone, no drain, no leave.
	b.stop()

	for id, q := range queries {
		fol := followers[id]
		// Reads keep working through the whole failover window: the follower
		// first answers from its (still-fresh) replica copy, then from the
		// promoted registry entry. Either way: 200 and byte-identical.
		sameSuggestion(t, id+" after owner kill", suggestVia(t, fol.url, id, q), want[id])

		// The follower inherits ownership (rendezvous re-rank of the healthy
		// set) and must ACTIVATE its pushed copy, not rebuild. Wait for the
		// promotion itself — health detection plus a reconcile tick.
		waitFor(t, 60*time.Second, "promotion of "+id, func() bool {
			_, ok := fol.srv.shard(id).Get(id)
			return ok
		})
		sameSuggestion(t, id+" after promotion", suggestVia(t, fol.url, id, q), want[id])

		if !fol.logs.anyAfter(marks[id], fmt.Sprintf("promote: designer %q", id)) {
			t.Fatalf("no promotion logged for %q on %s; log:\n%s",
				id, fol.srv.router.NodeID(), strings.Join(fol.logs.lines, "\n"))
		}
		if fol.logs.anyAfter(marks[id], fmt.Sprintf("rebuild: designer %q", id)) {
			t.Fatalf("survivor REBUILT %q instead of promoting; log:\n%s",
				id, strings.Join(fol.logs.lines, "\n"))
		}
		entry, ok := fol.srv.shard(id).Get(id)
		if !ok {
			t.Fatalf("promoted designer %q missing from survivor registry", id)
		}
		if st := entry.Status(); st.Rebuilds != 0 {
			t.Fatalf("promoted %q shows %d rebuilds, want 0", id, st.Rebuilds)
		}
		if gen := entry.Generation(); gen < pubGen[id] {
			t.Fatalf("promoted %q at generation %d, below the published %d", id, gen, pubGen[id])
		}
	}
	promotions := int64(0)
	for _, n := range []*gossipNode{a, c} {
		promotions += n.srv.router.Stats().ReplicaPromotions.Load()
	}
	if promotions < int64(len(specs)) {
		t.Fatalf("replica promotions = %d, want >= %d", promotions, len(specs))
	}
}

// dumpLogsOnFailure prints every node's captured cluster log when the test
// failed — replica choreography spans three processes, one log is not enough.
func dumpLogsOnFailure(t *testing.T, nodes map[string]*gossipNode) {
	if !t.Failed() {
		return
	}
	for id, n := range nodes {
		n.logs.mu.Lock()
		t.Logf("=== %s log ===\n%s", id, strings.Join(n.logs.lines, "\n"))
		n.logs.mu.Unlock()
	}
}

// waitForMembership blocks until every node sees the same n-member ring with
// all peers healthy — the settled state replica-set resolution depends on.
func waitForMembership(t *testing.T, n int, nodes ...*gossipNode) {
	t.Helper()
	waitFor(t, 15*time.Second, "membership convergence", func() bool {
		want := nodes[0].srv.router.RingVersion()
		for _, node := range nodes {
			if node.srv.router.RingVersion() != want || len(node.srv.router.Members()) != n {
				return false
			}
			for _, p := range node.srv.router.Peers() {
				if !p.Healthy() {
					return false
				}
			}
		}
		return true
	})
}

// patchVia applies a dataset patch over HTTP through the given node.
func patchVia(t *testing.T, url, id string, req patchDatasetRequest) (DatasetPatchResult, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPatch, url+"/v1/datasets/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DatasetPatchResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// eqSuggestion is sameSuggestion without the Fatalf, for waitFor polling.
func eqSuggestion(got suggestionJSON, want *Suggestion) bool {
	if got.Distance != want.Distance || got.AlreadyFair != want.AlreadyFair || len(got.Weights) != len(want.Weights) {
		return false
	}
	for k := range want.Weights {
		if got.Weights[k] != want.Weights[k] {
			return false
		}
	}
	return true
}

// Datasets have no ring owner, so a PATCH lands on whichever node receives
// it — here deliberately NOT the node that created the dataset — applies
// locally, and replicates the new revision through the metadata channels.
// Both nodes must converge on the same chained revision, and the designer
// over the patched dataset must answer byte-identically to a from-scratch
// build over the same data, through either node. The serving owner built its
// index in-process, so the splice must take the incremental repair path.
func TestPatchThroughNonCreatorConvergesCluster(t *testing.T) {
	a := startGossipNode(t, "node-a", nil, 60*time.Millisecond)
	b := startGossipNode(t, "node-b", nil, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	waitForMembership(t, 2, a, b)
	gossipDatasets(t, a.srv)
	id := "patch-conv-2d"
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := a.srv.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.6, 0.4}
	waitFor(t, 60*time.Second, "designer servable through both nodes", func() bool {
		var got suggestionJSON
		return postJSON(t, a.url+"/v1/designers/"+id+"/suggest", suggestRequest{Weights: q}, &got) == http.StatusOK &&
			postJSON(t, b.url+"/v1/designers/"+id+"/suggest", suggestRequest{Weights: q}, &got) == http.StatusOK
	})
	waitFor(t, 15*time.Second, "dataset replicated to B", func() bool {
		_, ok := b.srv.Dataset("biased")
		return ok
	})

	// The same delta, expressed as the wire request and as the local delta
	// for the reference rebuild.
	req := patchDatasetRequest{
		Remove: []int{0, 3},
		Add:    []patchItemSpec{{Row: []float64{0.55, 0.44}, Types: map[string]string{"group": "protected"}}},
	}
	delta := DatasetDelta{
		Removed: req.Remove,
		Added:   []PatchItem{{Row: req.Add[0].Row, Types: req.Add[0].Types}},
	}
	res, code := patchVia(t, b.url, "biased", req)
	if code != http.StatusOK {
		t.Fatalf("PATCH via B: HTTP %d", code)
	}

	biased, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := ApplyDelta(biased, delta)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != patched.N() {
		t.Fatalf("patched item count %d, want %d", res.N, patched.N())
	}
	fresh, err := NewDesigner(patched, patchOracle(t, patched), Config{Mode: Mode2D})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Satisfiable() {
		t.Skip("patched instance unsatisfiable (generator quirk)")
	}
	want, err := fresh.Suggest(q)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 15*time.Second, "revision convergence on both nodes", func() bool {
		ra, _ := a.srv.DatasetRevision("biased")
		rb, _ := b.srv.DatasetRevision("biased")
		return ra == res.Revision && rb == res.Revision
	})
	for _, n := range []*gossipNode{a, b} {
		node := n
		waitFor(t, 60*time.Second, "patched answers via "+node.srv.router.NodeID(), func() bool {
			var got suggestionJSON
			if postJSON(t, node.url+"/v1/designers/"+id+"/suggest", suggestRequest{Weights: q}, &got) != http.StatusOK {
				return false
			}
			return eqSuggestion(got, want)
		})
		sameSuggestion(t, "patched "+id+" via "+node.srv.router.NodeID(), suggestVia(t, node.url, id, q), want)
	}
	// The owner held an in-process index and the churn (3 of 80) is under
	// the default threshold: the splice must have repaired, not rebuilt.
	if !a.logs.any("repaired in place") && !b.logs.any("repaired in place") {
		t.Fatalf("no node repaired the index in place; logs:\n%s\n%s",
			strings.Join(a.logs.lines, "\n"), strings.Join(b.logs.lines, "\n"))
	}
}

// The failover seam of mutability: an owner dies, its follower promotes the
// replicated (pre-patch) index copy, and only then does a patch land on the
// dataset. The promoted index is now stale — reconcile's detect-and-patch
// sweep must notice the fingerprint mismatch and splice the promoted entry
// forward to the patched revision, without any request touching it.
func TestPromotedReplicaRepairsToPatchedRevision(t *testing.T) {
	a := startReplicaNode(t, "node-a", 1, 60*time.Millisecond)
	b := startReplicaNode(t, "node-b", 0, 60*time.Millisecond)
	c := startReplicaNode(t, "node-c", 0, 60*time.Millisecond)
	if err := b.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.JoinCluster(t.Context(), a.url); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*gossipNode{"node-a": a, "node-b": b, "node-c": c}
	t.Cleanup(func() { dumpLogsOnFailure(t, byID) })

	waitFor(t, 15*time.Second, "replica factor gossiped", func() bool {
		return b.srv.replicaFactor() == 1 && c.srv.replicaFactor() == 1
	})
	waitForMembership(t, 3, a, b, c)
	gossipDatasets(t, a.srv)

	id := nameOwnedBy(t, "patched-promo", "node-b", "node-a", "node-b", "node-c")
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d"},
	}
	if err := a.srv.CreateDesigner(id, spec); err != nil {
		t.Fatal(err)
	}
	set := a.srv.router.ReplicaSet(id, 1)
	if set[0].ID != "node-b" || len(set) != 2 {
		t.Fatalf("replica set %v, want node-b plus one follower", set)
	}
	follower := byID[set[1].ID]

	q := []float64{0.6, 0.4}
	waitFor(t, 60*time.Second, "owner index built", func() bool {
		entry, ok := b.srv.shard(id).Get(id)
		return ok && entry.Status().Status == "ready"
	})
	waitFor(t, 30*time.Second, "replica copy pushed to follower", func() bool {
		return follower.srv.replicas.Generation(id) > 0
	})
	wantOld, err := b.srv.Suggest(id, q)
	if err != nil {
		t.Fatal(err)
	}

	// Owner dies outright; the follower promotes its pre-patch copy.
	b.stop()
	waitFor(t, 60*time.Second, "promotion on the follower", func() bool {
		_, ok := follower.srv.shard(id).Get(id)
		return ok
	})
	sameSuggestion(t, "promoted pre-patch "+id, suggestVia(t, follower.url, id, q), wantOld)

	// The dataset moves on AFTER the promotion: the promoted index is stale
	// the moment this patch replicates.
	req := patchDatasetRequest{
		Remove: []int{1, 5},
		Add:    []patchItemSpec{{Row: []float64{0.35, 0.71}, Types: map[string]string{"group": "majority"}}},
	}
	res, code := patchVia(t, a.url, "biased", req)
	if code != http.StatusOK {
		t.Fatalf("PATCH via A: HTTP %d", code)
	}

	biased, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := ApplyDelta(biased, DatasetDelta{
		Removed: req.Remove,
		Added:   []PatchItem{{Row: req.Add[0].Row, Types: req.Add[0].Types}},
	})
	if err != nil {
		t.Fatal(err)
	}
	freshD, err := NewDesigner(patched, patchOracle(t, patched), Config{Mode: Mode2D})
	if err != nil {
		t.Fatal(err)
	}

	// Detect-and-patch: the promoted entry must reach the patched revision —
	// the same chained value the patching node reported — through reconcile's
	// sweep alone.
	waitFor(t, 60*time.Second, "promoted index spliced to the patched revision", func() bool {
		entry, ok := follower.srv.shard(id).Get(id)
		if !ok {
			return false
		}
		eng, err := entry.Engine()
		if err != nil {
			return false
		}
		de, ok := eng.(*designerEngine)
		return ok && de.d.Revision() == res.Revision
	})
	rf, _ := follower.srv.DatasetRevision("biased")
	if rf != res.Revision {
		t.Fatalf("follower dataset revision %#x, want %#x", rf, res.Revision)
	}
	if freshD.Satisfiable() {
		want, err := freshD.Suggest(q)
		if err != nil {
			t.Fatal(err)
		}
		sameSuggestion(t, "repaired promoted "+id, suggestVia(t, follower.url, id, q), want)
	}
}
