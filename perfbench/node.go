package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"fairrank"
	"fairrank/internal/obs"
)

// node is one fairrankd hosted in the benchmark's process: a fairrank.Server
// configured exactly as cmd/fairrankd configures it from its flag defaults,
// behind an http.Server on a loopback port. Hosting it in-process, rather
// than as a child process, keeps every request's path to one scheduler and
// one heap, shared with the client.
type node struct {
	id   string
	addr string
	url  string
	dir  string // SaveDir/LoadDir data directory
	cfg  fairrank.ClusterConfig
	log  *os.File

	srv     atomic.Pointer[fairrank.Server]
	hs      *http.Server
	serving chan struct{} // closed when hs.Serve has returned
}

// startNodes listens on k loopback ports and starts one empty server per
// port, each naming the others as static peers.
func startNodes(work string, k, replicas int) ([]*node, error) {
	lns := make([]net.Listener, k)
	nodes := make([]*node, k)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		id := fmt.Sprintf("node-%d", i)
		nodes[i] = &node{id: id, addr: ln.Addr().String(), url: "http://" + ln.Addr().String(),
			dir: filepath.Join(work, id)}
	}
	for i, n := range nodes {
		var peers []fairrank.ClusterPeer
		for j, m := range nodes {
			if j != i {
				peers = append(peers, fairrank.ClusterPeer{ID: m.id, URL: m.url})
			}
		}
		f, err := os.OpenFile(filepath.Join(work, n.id+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			closeListeners(lns[i:])
			closeNodes(nodes[:i])
			return nil, err
		}
		n.log = f
		n.cfg = fairrankdConfig(n.id, n.url, peers, replicas, f)
		srv, err := fairrank.NewClusterServer(n.cfg)
		if err != nil {
			f.Close()
			closeListeners(lns[i:])
			closeNodes(nodes[:i])
			return nil, err
		}
		n.srv.Store(srv)
		n.serve(lns[i])
	}
	return nodes, nil
}

// fairrankdConfig is the configuration cmd/fairrankd builds from its flag
// defaults: 5 s health and anti-entropy periods, a 250 ms slow-query
// threshold logging every slow request, a 256-trace ring, one shard, and its
// structured logger writing to log.
func fairrankdConfig(id, url string, peers []fairrank.ClusterPeer, replicas int, log io.Writer) fairrank.ClusterConfig {
	return fairrank.ClusterConfig{
		NodeID:              id,
		Shards:              1,
		Peers:               peers,
		AdvertiseURL:        url,
		HealthInterval:      5 * time.Second,
		AntiEntropyInterval: 5 * time.Second,
		Replicas:            replicas,
		Logger:              obs.NewLogger(log, id),
		TraceBuffer:         256,
		SlowQueryThreshold:  250 * time.Millisecond,
		SlowQueryEvery:      1,
	}
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// serve starts the HTTP listener loop. The handler indirection lets a
// restart swap the Server behind a port that stays open.
func (n *node) serve(ln net.Listener) {
	n.hs = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { n.srv.Load().Handler().ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	n.serving = make(chan struct{})
	hs, done := n.hs, n.serving
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
}

// stopHTTP closes the listener and every connection, and waits for the
// serve loop to return.
func (n *node) stopHTTP() {
	n.hs.Close()
	<-n.serving
}

func (n *node) close() {
	n.stopHTTP()
	n.srv.Load().Close()
	n.log.Close()
}

func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

// restart runs fairrankd's stop/start sequence in-process: SaveDir, Close,
// a new server from the same configuration, LoadDir. With relisten the port
// is closed first and listened on again afterwards, as a process restart
// does. A cluster node keeps its port open and swaps the new server in
// instead: a closed port would let a peer's gossip tick or health probe mark
// the node down and start failover, which is timer-driven and out of scope.
func (n *node) restart(relisten bool) (save, load time.Duration, err error) {
	if relisten {
		n.stopHTTP()
	}
	old := n.srv.Load()
	t := time.Now()
	if err := old.SaveDir(n.dir); err != nil {
		return 0, 0, fmt.Errorf("%s: SaveDir: %w", n.id, err)
	}
	save = time.Since(t)
	old.Close()
	srv, err := fairrank.NewClusterServer(n.cfg)
	if err != nil {
		return 0, 0, err
	}
	t = time.Now()
	if err := srv.LoadDir(n.dir); err != nil {
		return 0, 0, fmt.Errorf("%s: LoadDir: %w", n.id, err)
	}
	load = time.Since(t)
	n.srv.Store(srv)
	if relisten {
		ln, err := net.Listen("tcp", n.addr)
		if err != nil {
			return 0, 0, err
		}
		n.serve(ln)
	}
	return save, load, nil
}

// client is one stream's HTTP client: one request in flight at a time.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{
		Proxy:               nil, // loopback only; never consult proxy settings
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: failedLatency}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; a non-2xx status is
// returned as an error along with the body.
func (c *client) do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *client) getJSON(url string, v any) error {
	out, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}

// metricsDoc is the part of GET /metrics (JSON) the benchmark reads.
type metricsDoc struct {
	Designers map[string]struct {
		Generation uint64 `json:"generation"`
		Metrics    struct {
			Queries           int64 `json:"queries"`
			CacheHits         int64 `json:"cache_hits"`
			CacheMisses       int64 `json:"cache_misses"`
			ResumeHits        int64 `json:"resume_hits"`
			BatchPlannerSlots int64 `json:"batch_planner_slots"`
			BatchDedupedSlots int64 `json:"batch_deduped_slots"`
		} `json:"metrics"`
	} `json:"designers"`
	Cluster struct {
		Stats struct {
			ReplicaPushes         int64 `json:"replica_pushes"`
			ReplicaReadsLocal     int64 `json:"replica_reads_local"`
			ReplicaReadsForwarded int64 `json:"replica_reads_forwarded"`
			ReplicaStaleForwards  int64 `json:"replica_stale_forwards"`
			HandoffBytesOut       int64 `json:"handoff_bytes_out"`
		} `json:"stats"`
		Peers []struct {
			ForwardFailures int64 `json:"forward_failures"`
		} `json:"peers"`
	} `json:"cluster"`
	Patches struct {
		Datasets         int64 `json:"datasets"`
		DesignerRepairs  int64 `json:"designer_repairs"`
		DesignerRebuilds int64 `json:"designer_rebuilds"`
	} `json:"patches"`
}

// counters is the cluster-wide sum of the /metrics series the benchmark
// turns into per-layer ratios, indexed by the constants below.
type counters [nCounters]int64

const (
	queries = iota
	cacheHits
	cacheMisses
	batchSlots
	dedupedSlots
	resumeHits
	generations
	replicaLocal
	replicaForwarded
	stale
	pushes
	pushBytes
	fwdFailures
	patches
	repairs
	rebuilds
	nCounters
)

func (a counters) minus(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// scrape sums /metrics over every node.
func scrape(c *client, nodes []*node) (counters, error) {
	var sum counters
	for _, n := range nodes {
		var doc metricsDoc
		if err := c.getJSON(n.url+"/metrics", &doc); err != nil {
			return sum, err
		}
		for _, d := range doc.Designers {
			m := d.Metrics
			sum[queries] += m.Queries
			sum[cacheHits] += m.CacheHits
			sum[cacheMisses] += m.CacheMisses
			sum[batchSlots] += m.BatchPlannerSlots
			sum[dedupedSlots] += m.BatchDedupedSlots
			sum[resumeHits] += m.ResumeHits
			sum[generations] += int64(d.Generation)
		}
		st := doc.Cluster.Stats
		sum[replicaLocal] += st.ReplicaReadsLocal
		sum[replicaForwarded] += st.ReplicaReadsForwarded
		sum[stale] += st.ReplicaStaleForwards
		sum[pushes] += st.ReplicaPushes
		sum[pushBytes] += st.HandoffBytesOut
		for _, p := range doc.Cluster.Peers {
			sum[fwdFailures] += p.ForwardFailures
		}
		sum[patches] += doc.Patches.Datasets
		sum[repairs] += doc.Patches.DesignerRepairs
		sum[rebuilds] += doc.Patches.DesignerRebuilds
	}
	return sum, nil
}

// replicasCaughtUp reports whether every follower holds a copy at the
// owner's published generation of every designer it follows. The gauge is
// absent until the owner's first publication.
func replicasCaughtUp(c *client, nodes []*node, follows [][]string) (bool, error) {
	for i, n := range nodes {
		out, err := c.do(http.MethodGet, n.url+"/metrics?format=prometheus", nil)
		if err != nil {
			return false, err
		}
		for _, id := range follows[i] {
			if !bytes.Contains(out, []byte(`fairrank_replica_lag_generations{designer="`+id+`"} 0`+"\n")) {
				return false, nil
			}
		}
	}
	return true, nil
}

// awaitReplicas polls until every follower copy is current. Copies arrive
// on the owners' 5 s anti-entropy tick after a create (or right after a
// patch), so this wait is bounded by the tick; it is kept outside every
// timed phase.
func awaitReplicas(c *client, nodes []*node, follows [][]string, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	for {
		ok, err := replicasCaughtUp(c, nodes, follows)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("follower replicas did not catch up")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
