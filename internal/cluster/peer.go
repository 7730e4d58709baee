package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/obs"
)

// ForwardHeader marks a request as already forwarded once. A node that
// receives a request carrying it serves locally no matter what its ring
// says, so two nodes with momentarily different health views bounce a
// request at most once instead of ping-ponging it forever.
const ForwardHeader = "X-Fairrank-Forwarded"

// Peer is the client side of one remote cluster member: health state plus
// the HTTP plumbing for forwarding requests and replicating metadata.
//
// Peers start out healthy (optimistic): a cluster must route correctly
// before the first health-check tick, and a wrong guess self-corrects — the
// first failed forward marks the peer down and recomputes ownership.
type Peer struct {
	member Member
	client *http.Client

	down     atomic.Bool
	mu       sync.Mutex // guards lastErr, lastCheck
	lastErr  string
	lastSeen time.Time

	forwards    atomic.Int64 // requests proxied to this peer
	forwardErrs atomic.Int64 // proxies that failed at the transport
}

// ForwardCounts reports how many requests were proxied to this peer and how
// many of those failed before anything reached the client — the
// fairrank_forwards_total / fairrank_forward_failures_total series.
func (p *Peer) ForwardCounts() (ok, failed int64) {
	return p.forwards.Load(), p.forwardErrs.Load()
}

// setTrace stamps the context's trace id (when present) onto an outbound
// request, so a forwarded or cluster-internal hop joins the originating
// trace instead of starting its own.
func setTrace(ctx context.Context, req *http.Request) {
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
}

func newPeer(m Member, client *http.Client) *Peer {
	if client == nil {
		client = &http.Client{}
	}
	return &Peer{member: m, client: client}
}

// NewPeer returns a client for a cluster member that is not (yet) on this
// node's ring — the join bootstrap talks to its seed node through one of
// these before any membership is known. A nil client uses http.DefaultClient
// semantics.
func NewPeer(m Member, client *http.Client) *Peer { return newPeer(m, client) }

// Member returns the peer's identity.
func (p *Peer) Member() Member { return p.member }

// Healthy reports whether the peer is currently believed reachable.
func (p *Peer) Healthy() bool { return !p.down.Load() }

// LastError returns the most recent transport or health-check failure (empty
// when none) and when the peer last answered a check.
func (p *Peer) LastError() (string, time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr, p.lastSeen
}

// MarkUnhealthy records a failed interaction; ownership recomputes among the
// remaining healthy members until a health check brings the peer back.
func (p *Peer) MarkUnhealthy(err error) {
	p.down.Store(true)
	p.mu.Lock()
	p.lastErr = err.Error()
	p.mu.Unlock()
}

// Check probes the peer's /healthz and updates its health state.
func (p *Peer) Check(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.member.URL+"/healthz", nil)
	if err != nil {
		p.MarkUnhealthy(err)
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.MarkUnhealthy(err)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("cluster: peer %s healthz: HTTP %d", p.member.ID, resp.StatusCode)
		p.MarkUnhealthy(err)
		return err
	}
	p.down.Store(false)
	p.mu.Lock()
	p.lastErr = ""
	p.lastSeen = time.Now()
	p.mu.Unlock()
	return nil
}

// Forward proxies r (with the already-buffered body) to the peer and copies
// the peer's response — status, headers, body — back to w. It returns an
// error only when nothing was written to w yet (transport failure), so the
// caller can safely fall through to local handling or another member.
//
// The hop carries the caller's trace id, and the remote node answers with
// its span records in an X-Fairrank-Spans trailer; Forward merges those into
// the request's recorder, so the entry node's trace shows the remote
// decode/cache/planner/kernel stages alongside its own.
func (p *Peer) Forward(w http.ResponseWriter, r *http.Request, from string, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		p.member.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(ForwardHeader, from)
	if r.Header.Get(ReplicaFinalHeader) != "" {
		// A stale follower bouncing a replicated read to the owner: the mark
		// must survive the hop so the owner serves unconditionally.
		req.Header.Set(ReplicaFinalHeader, from)
	}
	setTrace(r.Context(), req)
	resp, err := p.client.Do(req)
	if err != nil {
		p.forwardErrs.Add(1)
		return err
	}
	p.forwards.Add(1)
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	// Trailers surface only after the body is fully read.
	if enc := resp.Trailer.Get(obs.SpansHeader); enc != "" {
		obs.FromContext(r.Context()).MergeRemote(obs.DecodeSpans(enc))
	}
	return nil
}

// StatusError is a non-2xx answer from a peer that was reachable: an
// application-level response (404 for an id the peer lost, 503 while
// building), NOT a peer failure — callers must not mark the peer unhealthy
// for it.
type StatusError struct {
	Peer string
	Path string
	Code int
}

// Error formats the peer, path, and status code of the failed call.
func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: peer %s %s: HTTP %d", e.Peer, e.Path, e.Code)
}

// PostJSON posts v as JSON to path and decodes the response into out (when
// non-nil), reporting non-2xx statuses as *StatusError. It is the typed
// sibling of PostRaw for the cluster-control endpoints (join, leave, digest
// exchange, meta push) where the answer matters.
func (p *Peer) PostJSON(ctx context.Context, path, from string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.member.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, from)
	setTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return &StatusError{Peer: p.member.ID, Path: path, Code: resp.StatusCode}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ExchangeDigest runs the pull leg of one anti-entropy round: it ships this
// node's digest to the peer's /cluster/digest and returns the peer's
// Updates (entries we should apply) and Wants (keys we should push back).
func (p *Peer) ExchangeDigest(ctx context.Context, from string, d Digest) (DigestResponse, error) {
	var resp DigestResponse
	err := p.PostJSON(ctx, "/cluster/digest", from, d, &resp)
	return resp, err
}

// PushEntries ships full metadata entries to the peer's /cluster/meta — the
// push leg of an exchange (answering the peer's Wants) and the replication
// path for locally originated writes.
func (p *Peer) PushEntries(ctx context.Context, from string, entries []MetaEntry) error {
	if len(entries) == 0 {
		return nil
	}
	return p.PostJSON(ctx, "/cluster/meta", from,
		map[string][]MetaEntry{"entries": entries}, nil)
}

// FetchIndex streams the peer's persisted index bytes for a designer
// (GET /cluster/handoff/{id}) — the pull side of an index move: a new ring
// owner, or a follower that missed a push, loads the peer's index instead of
// re-running the offline build. A positive offset asks the peer to skip that
// many stream bytes — the resume path after a broken pull; index
// serialization is deterministic, so the suffix stitches onto the prefix
// already received and the section checksums vouch for the result. A peer
// that holds no ready index answers 404, surfaced as *StatusError; the
// caller then falls back to rebuilding. The caller must Close the returned
// stream. gen is the generation the source stamped on the stream (its
// GenerationHeader; 0 when missing, which the receiving side refuses), so an
// index keeps its generation across ownership moves.
func (p *Peer) FetchIndex(ctx context.Context, from, id string, offset int64) (rc io.ReadCloser, gen uint64, err error) {
	url := p.member.URL + "/cluster/handoff/" + id
	if offset > 0 {
		url += fmt.Sprintf("?offset=%d", offset)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set(ForwardHeader, from)
	setTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, 0, &StatusError{Peer: p.member.ID, Path: "/cluster/handoff/" + id, Code: resp.StatusCode}
	}
	gen, _ = strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	return resp.Body, gen, nil
}

// PushReplica streams index bytes at generation gen to the peer's
// POST /cluster/replica/{id} — the one push of a sealed index, used by an
// owner fanning its index out to a follower and by a draining node handing
// its index to the designer's next owner. The receiver stores the copy in
// its replica store; it serves only once promoted there.
func (p *Peer) PushReplica(ctx context.Context, from, id string, gen uint64, body io.Reader) error {
	path := "/cluster/replica/" + id
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.member.URL+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(ForwardHeader, from)
	req.Header.Set(GenerationHeader, strconv.FormatUint(gen, 10))
	setTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return &StatusError{Peer: p.member.ID, Path: path, Code: resp.StatusCode}
	}
	return nil
}

// GetJSON fetches path from the peer and decodes the JSON response into out,
// reporting non-2xx statuses as *StatusError. Used to poll a remote owner's
// designer status.
func (p *Peer) GetJSON(ctx context.Context, path, from string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.member.URL+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set(ForwardHeader, from)
	setTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return &StatusError{Peer: p.member.ID, Path: path, Code: resp.StatusCode}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
