// The peer-call seam: every outbound intra-cluster request — a
// forwarded client request, an artifact fetch, check or push, a JSON
// read, a health probe, a join, leave or gossip message — goes through
// Cluster.call, which builds the request, marks it forwarded, stamps
// the trace and deadline headers, picks the HTTP client for its class,
// applies the circuit breaker, and feeds the classified outcome back
// to it. The exported calls below keep only their own path, body and
// status handling.
//
// Beside it sits the one replica walk, WalkOwners: a key's non-self
// owners in ring order with at most one jittered-backoff retry, shared
// by request routing, the batch fan-out and the artifact fetcher.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
)

// ForwardedHeader marks intra-cluster requests (value: the sender's
// node URL). A forwarded request is never re-routed: the receiver
// computes it locally, which both implements "owned work runs locally"
// and makes routing loops impossible even when two nodes briefly
// disagree about membership.
const ForwardedHeader = "X-Spmt-Forwarded"

// DeadlineHeader carries a request's remaining time budget, in whole
// milliseconds, across cluster hops. The entry node mints it (from
// the caller's deadline or -default-deadline), every peer call
// re-derives it from the sender's context — so it shrinks naturally at
// each hop — and the receiver applies it (AdoptDeadline) as a context
// deadline, cancelling engine work the moment the budget is spent.
const DeadlineHeader = "X-Spmt-Deadline"

// ArtifactKindHeader carries the codec kind tag of an artifact image
// served by GET /v1/artifacts (and pushed by PUT /v1/artifacts).
const ArtifactKindHeader = "X-Spmt-Artifact-Kind"

// Peer-call time bounds. Forwards carry no overall timeout (the owner
// may legitimately compute for minutes — batch sub-streams, full-size
// figure sweeps — and the caller's context already cancels an
// abandoned proxy), but their connect and header phases are bounded: a
// partitioned owner that drops packets, or one that is wedged while
// its socket keeps accepting, would otherwise stall a routed request
// instead of triggering the local-compute fallback. An owner that
// computes longer than proxyHeaderTimeout before its first byte simply
// falls back to local compute — correct, just duplicated work.
// Artifact and control-plane calls move bounded payloads and carry
// total deadlines; health probes additionally carry their own
// per-probe deadline (ProberOptions.Timeout).
const (
	dialTimeout        = 5 * time.Second
	proxyHeaderTimeout = 5 * time.Minute
	fetchTimeout       = 30 * time.Second
	ctlTimeout         = 5 * time.Second
)

// peerClass picks a peer call's HTTP client and its treatment by the
// circuit breaker.
type peerClass int

const (
	// classProxy: a forwarded client request (proxy client), checked
	// against the breaker first and reported to it.
	classProxy peerClass = iota
	// classData: artifact exchange and JSON reads (fetch client),
	// checked against the breaker first and reported to it.
	classData
	// classProbe: a health probe (control client). Never fast-failed —
	// probes are the out-of-band recovery path — but reported, so a
	// successful probe closes an open circuit even with no request
	// traffic to half-open it.
	classProbe
	// classControl: join, leave and gossip (control client); the
	// breaker is neither checked nor reported.
	classControl
	numClasses
)

// newClients builds the per-class peer clients, each transport wrapped
// by wrap when set (the fault injector's seam).
func newClients(wrap func(http.RoundTripper) http.RoundTripper) [numClasses]*http.Client {
	dial := (&net.Dialer{Timeout: dialTimeout}).DialContext
	client := func(t *http.Transport, timeout time.Duration) *http.Client {
		t.DialContext = dial
		var rt http.RoundTripper = t
		if wrap != nil {
			rt = wrap(rt)
		}
		return &http.Client{Transport: rt, Timeout: timeout}
	}
	ctl := client(&http.Transport{}, ctlTimeout)
	return [numClasses]*http.Client{
		classProxy:   client(&http.Transport{ResponseHeaderTimeout: proxyHeaderTimeout}, 0),
		classData:    client(&http.Transport{}, fetchTimeout),
		classProbe:   ctl,
		classControl: ctl,
	}
}

// peerReq is one outbound peer request.
type peerReq struct {
	class  peerClass
	method string
	path   string // path and query, appended to the node URL
	body   []byte // sent as JSON unless kind is set
	kind   string // ArtifactKindHeader: body is an encoded artifact image
}

// call is the peer-call seam. The caller owns the returned response and
// must close its body; a non-nil error means no response arrived —
// ErrBreakerOpen (nothing was sent) or a transport failure.
func (c *Cluster) call(ctx context.Context, node string, preq peerReq) (*http.Response, error) {
	gated := preq.class == classProxy || preq.class == classData
	if gated {
		if err := c.breaker.allow(node); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, preq.method, node+preq.path, bytes.NewReader(preq.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(ForwardedHeader, c.self)
	switch {
	case preq.kind != "":
		req.Header.Set(ArtifactKindHeader, preq.kind)
		req.Header.Set("Content-Type", "application/octet-stream")
	case len(preq.body) > 0:
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.TraceIDFrom(ctx); id != "" {
		// The peer's spans land in the trace the entry node started, so
		// the stitcher can find them.
		req.Header.Set(obs.TraceHeader, id)
	}
	setDeadlineHeader(ctx, req)
	resp, err := c.clients[preq.class].Do(req)
	if gated || preq.class == classProbe {
		c.breaker.report(node, Classify(resp, err) == "")
	}
	return resp, err
}

// callJSON is call for JSON endpoints: any status but 200 is an error,
// and the response body (at most limit bytes) decodes into out.
func (c *Cluster) callJSON(ctx context.Context, node string, preq peerReq, limit int64, out any) error {
	resp, err := c.call(ctx, node, preq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: %s %s%s: status %d", preq.method, node, preq.path, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(out); err != nil {
		return fmt.Errorf("shard: %s %s%s: %w", preq.method, node, preq.path, err)
	}
	return nil
}

// TransientStatus reports whether an HTTP status from a peer marks a
// transient failure worth one replica retry (the peer is up but
// failing). 4xx answers are authoritative and relayed, not retried.
func TransientStatus(code int) bool { return code >= 500 }

// Classify names why a peer call's outcome cannot stand as the answer:
// FallbackBreaker when the breaker fast-failed it, FallbackTransport
// for any other error, FallbackStatus for a 5xx, and "" for a response
// to relay. The breaker counts every non-"" outcome as a failure.
func Classify(resp *http.Response, err error) FallbackReason {
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return FallbackBreaker
	case err != nil:
		return FallbackTransport
	case TransientStatus(resp.StatusCode):
		return FallbackStatus
	}
	return ""
}

// setDeadlineHeader stamps the context's remaining budget onto an
// intra-cluster request as whole milliseconds, rounded UP so a
// positive sub-millisecond remainder never truncates to a value the
// receiver could confuse with "no budget". A budget already spent is
// stamped as an explicit "0", which the receiver treats as expired —
// distinct from an absent header, which means no deadline at all.
func setDeadlineHeader(ctx context.Context, req *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(DeadlineHeader, deadlineValue(time.Until(dl)))
	}
}

// deadlineValue renders a remaining budget as the header's whole
// milliseconds: ceil for a live budget, "0" for a spent one.
func deadlineValue(rem time.Duration) string {
	if rem <= 0 {
		return "0"
	}
	return strconv.FormatInt(int64((rem+time.Millisecond-1)/time.Millisecond), 10)
}

// AdoptDeadline is the receiving side of setDeadlineHeader: it applies
// a DeadlineHeader value to ctx. A positive value becomes a timeout of
// that many milliseconds; "0" (or below) is a SPENT budget, not an
// absent one, and gives an already-expired context — cold compute then
// rejects at once while store-resolvable work still answers, rather
// than this hop granting itself a budget the sender never had. An
// empty or malformed value adopts nothing: the returned cancel is nil.
func AdoptDeadline(ctx context.Context, h string) (context.Context, context.CancelFunc) {
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return ctx, nil
	}
	if ms <= 0 {
		return context.WithTimeout(ctx, -time.Millisecond)
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// PeerOwners lists key's owners on the effective ring, in ring order,
// without self: the nodes a read may ask and a write-through must push
// to.
func (c *Cluster) PeerOwners(key string) []string {
	var out []string
	for _, n := range c.ReplicaSet(key) {
		if n != c.self {
			out = append(out, n)
		}
	}
	return out
}

// WalkOwners is the one replica walk. It attempts key's non-self
// owners in ring order: the first, and — only when that attempt
// returns false and ctx outlasts a jittered backoff — exactly one more.
// One retry, not a loop: the replica either has the artifact warm or
// local compute is the faster answer; a cache cluster's worst case is
// a recompute, so retrying harder only adds latency. The retry counts
// in PeerRetries, and in PeerRetrySuccesses when it returns true.
// WalkOwners reports whether an attempt returned true; false leaves
// the caller to answer locally.
func (c *Cluster) WalkOwners(ctx context.Context, key string, attempt func(peer string) bool) bool {
	peers := c.PeerOwners(key)
	if len(peers) == 0 {
		return false
	}
	if attempt(peers[0]) {
		return true
	}
	if len(peers) < 2 || !c.backoff(ctx, key) {
		return false
	}
	c.retries.Add(1)
	ok := attempt(peers[1])
	if ok {
		c.retryHits.Add(1)
	}
	return ok
}

// backoff blocks for the jittered retry delay — in [base/2, base),
// derived deterministically from the key, so concurrent retries for
// different keys spread out while tests stay repeatable — and reports
// false if ctx ended first.
func (c *Cluster) backoff(ctx context.Context, key string) bool {
	half := c.retryBackoff / 2
	if half <= 0 {
		half = time.Millisecond
	}
	t := time.NewTimer(half + time.Duration(hashKey(key+"#retry")%uint64(half)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Forward sends the (already-read) request body to node's
// path-and-query, marked with ForwardedHeader so the receiver computes
// locally. The caller owns the returned response and must close its
// body; a nil response with an error means the node was unreachable
// and the caller should fall back to the replica or local compute.
func (c *Cluster) Forward(ctx context.Context, node, method, pathQuery string, body []byte) (*http.Response, error) {
	resp, err := c.call(ctx, node, peerReq{class: classProxy, method: method, path: pathQuery, body: body})
	if err == nil {
		c.proxied.Add(1)
	}
	return resp, err
}

// GetJSON fetches node's path and decodes the JSON response into v
// (used by the cluster-aggregate stats view, trace stitching and
// membership pulls).
func (c *Cluster) GetJSON(ctx context.Context, node, path string, v any) error {
	return c.callJSON(ctx, node, peerReq{class: classData, method: http.MethodGet, path: path}, MaxArtifactBytes, v)
}

// artifactPath is the artifact endpoint's path and query for key.
func artifactPath(key, extra string) string {
	return "/v1/artifacts?" + extra + "key=" + url.QueryEscape(key)
}

// FetchArtifact asks node for the encoded image of the artifact under
// key. ok=false with a nil error means the node answered but does not
// hold the artifact (or its type is memory-only).
func (c *Cluster) FetchArtifact(ctx context.Context, node, key string) (kind string, data []byte, ok bool, err error) {
	resp, err := c.call(ctx, node, peerReq{class: classData, method: http.MethodGet, path: artifactPath(key, "")})
	if err != nil {
		return "", nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return "", nil, false, nil
	default:
		return "", nil, false, fmt.Errorf("shard: fetch %q from %s: status %d", key, node, resp.StatusCode)
	}
	kind = resp.Header.Get(ArtifactKindHeader)
	if kind == "" {
		return "", nil, false, fmt.Errorf("shard: fetch %q from %s: missing %s header", key, node, ArtifactKindHeader)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, MaxArtifactBytes))
	if err != nil {
		return "", nil, false, err
	}
	return kind, data, true, nil
}

// CheckArtifact asks node whether it holds the artifact under key —
// the header-only probe the re-replication sweep runs before shipping
// an image, so an already-replicated key costs one round trip and no
// payload.
func (c *Cluster) CheckArtifact(ctx context.Context, node, key string) (bool, error) {
	resp, err := c.call(ctx, node, peerReq{class: classData, method: http.MethodGet, path: artifactPath(key, "check=1&")})
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("shard: check %q on %s: status %d", key, node, resp.StatusCode)
	}
}

// PushArtifact ships an encoded artifact image to node (the R=2
// write-through and re-replication transport; the receiving side is
// PUT /v1/artifacts). stored=false with a nil error means the node
// already held the key.
func (c *Cluster) PushArtifact(ctx context.Context, node, key, kind string, data []byte) (stored bool, err error) {
	var out struct {
		Stored bool `json:"stored"`
	}
	err = c.callJSON(ctx, node, peerReq{class: classData, method: http.MethodPut, path: artifactPath(key, ""), body: data, kind: kind},
		maxBodyLimit, &out)
	return out.Stored, err
}

// HealthDoc is the GET /v1/cluster/health body: liveness plus the
// membership fingerprint the prober compares for anti-entropy.
type HealthDoc struct {
	OK          bool   `json:"ok"`
	Node        string `json:"node"`
	Epoch       uint64 `json:"epoch"`
	Hash        string `json:"hash"`
	RingVersion uint64 `json:"ring_version"`
}

// ProbeHealth performs one health probe against node, bounded by the
// context's deadline. Probes bypass the circuit breaker's allow check
// but feed it their outcomes (classProbe).
func (c *Cluster) ProbeHealth(ctx context.Context, node string) (HealthDoc, error) {
	var doc HealthDoc
	if err := c.callJSON(ctx, node, peerReq{class: classProbe, method: http.MethodGet, path: healthPath}, maxBodyLimit, &doc); err != nil {
		return HealthDoc{}, err
	}
	if !doc.OK {
		return doc, fmt.Errorf("shard: probe %s: not ok", node)
	}
	return doc, nil
}
