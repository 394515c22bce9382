// Package router is selfrouter's core: an HTTP front proxy that
// spreads selfserved traffic over N replicas by cache affinity, so
// each replica's code cache, inline caches and tier promotions stay
// warm for the keys it owns.
//
// Why affinity and not load balancing: the whole economy of the
// compile-once architecture (and of the paper's iterative type
// analysis underneath it) is that compiled, customized, promoted code
// is REUSED. A replica that keeps seeing the same programs answers
// from warm cache at the optimizing tier; a replica seeing a random sample of
// everything re-pays compilation and promotion for every key times N
// replicas. So the router hashes an affinity key — the tenant header
// if the client sent one, else the program/expression/benchmark
// identity derived from the body by internal/wire — onto the replica
// set with rendezvous (highest-random-weight) hashing:
//
//   - every key has a stable total order over replicas (its
//     "preference list"), so the same program always lands on the
//     same replica while that replica is healthy;
//   - when a replica leaves (drain, crash) only ITS keys move, each
//     to the next replica in its own preference list — no global
//     reshuffle, every other replica's cache stays intact;
//   - when it returns, its keys snap back.
//
// Replicas are health-gated on their /readyz (a draining selfserved
// flips it 503, see internal/server), and the router does shed-aware
// failover: a 429 (admission shed), 503 (drain raced the health
// poll) or transport error on the first-choice replica is retried
// once on the next replica in the key's preference list. The retry
// is counted per reason in the router's own /metrics; a shed answer
// that survives the retry is returned with the larger Retry-After of
// the two replicas, so clients and upstream load generators back off
// on an honest signal.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"selfgo/internal/metrics"
	"selfgo/internal/wire"
)

// Config shapes a Router.
type Config struct {
	// Replicas is the selfserved base URLs ("http://host:port"). At
	// least one is required.
	Replicas []string

	// Policy selects the routing policy: PolicyAffinity (default)
	// rendezvous-hashes the affinity key; PolicyRandom scatters
	// requests over healthy replicas ignoring the key — it exists as
	// the experimental control for the affinity win, not for
	// production use.
	Policy Policy

	// TenantHeader names the header whose value, when present,
	// overrides the body-derived affinity key (default "X-Tenant").
	// Routing whole tenants keeps every key of a tenant on one
	// replica — coarser, but it isolates noisy neighbors.
	TenantHeader string

	// HealthEvery is the /readyz poll interval (default 250ms);
	// HealthTimeout bounds each probe (default 1s).
	HealthEvery   time.Duration
	HealthTimeout time.Duration

	// MaxBody bounds the request bytes the router will buffer for
	// routing and retry (default wire.DefaultMaxBody). Larger bodies
	// are rejected with 413 before any replica sees them.
	MaxBody int64

	// Client issues the proxied requests (default: a client with no
	// overall timeout — per-request deadlines belong to the replicas'
	// budget machinery, and benchmark runs can be legitimately slow).
	Client *http.Client
}

// Policy is the routing policy.
type Policy int

const (
	// PolicyAffinity rendezvous-hashes the affinity key (default).
	PolicyAffinity Policy = iota
	// PolicyRandom ignores the key and scatters load — the control
	// arm of the affinity experiment.
	PolicyRandom
)

func (p Policy) String() string {
	if p == PolicyRandom {
		return "random"
	}
	return "affinity"
}

// PolicyByName parses a -policy flag value.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "affinity", "":
		return PolicyAffinity, nil
	case "random":
		return PolicyRandom, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want affinity or random)", name)
}

func (c Config) withDefaults() Config {
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = wire.DefaultMaxBody
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// replica is one backend and its gate state.
type replica struct {
	name    string // base URL, also the metrics label
	healthy atomic.Bool
}

// Router is the proxy's state. Build with New, serve Handler(), stop
// the health loop with Close.
type Router struct {
	cfg      Config
	reg      *metrics.Registry
	replicas []*replica
	start    time.Time
	bootDur  time.Duration // New() construction time; routers are always cold-booted
	stop     chan struct{}
	stopped  chan struct{}
	scatter  atomic.Uint64 // PolicyRandom sequence

	m routerMetrics
}

// New validates the config, marks every replica healthy (the first
// poll corrects optimism within HealthEvery), starts the health loop
// and wires the metrics registry.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica is required")
	}
	seen := map[string]bool{}
	rt := &Router{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		start:   time.Now(),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for _, name := range cfg.Replicas {
		if name == "" || seen[name] {
			return nil, fmt.Errorf("router: empty or duplicate replica %q", name)
		}
		seen[name] = true
		r := &replica{name: name}
		r.healthy.Store(true)
		rt.replicas = append(rt.replicas, r)
	}
	rt.registerMetrics()
	rt.bootDur = time.Since(rt.start)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop.
func (rt *Router) Close() {
	close(rt.stop)
	<-rt.stopped
}

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// healthLoop polls every replica's /readyz on the configured cadence.
// A replica is in the ring iff its latest probe answered 200.
func (rt *Router) healthLoop() {
	defer close(rt.stopped)
	tick := time.NewTicker(rt.cfg.HealthEvery)
	defer tick.Stop()
	rt.probeAll() // correct the optimistic start immediately
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	for _, r := range rt.replicas {
		healthy := rt.probe(r)
		if healthy != r.healthy.Swap(healthy) {
			if healthy {
				rt.m.transitions.With(r.name, "up").Inc()
			} else {
				rt.m.transitions.With(r.name, "down").Inc()
			}
		}
	}
}

func (rt *Router) probe(r *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", r.name+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markUnhealthy drops a replica from the ring immediately on a
// transport failure, without waiting for the next probe — the probe
// loop will re-admit it when /readyz answers again.
func (rt *Router) markUnhealthy(r *replica) {
	if r.healthy.Swap(false) {
		rt.m.transitions.With(r.name, "down").Inc()
	}
}

// healthySnapshot returns the replicas currently in the ring.
func (rt *Router) healthySnapshot() []*replica {
	out := make([]*replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if r.healthy.Load() {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Rendezvous hashing

// score is the rendezvous weight of (key, replica): a 64-bit FNV-1a
// over the key and the replica name, separated so "ab"+"c" and
// "a"+"bc" cannot collide. Deterministic across processes and
// restarts — the ranking is a pure function of the strings.
func score(key, replicaName string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	h.Write([]byte{0xff})
	io.WriteString(h, replicaName)
	return h.Sum64()
}

// rank orders the given replicas by descending rendezvous score for
// key: rank(...)[0] is the key's home, [1] the first failover target,
// and so on. Ties (vanishingly rare) break on name for determinism.
func rank(key string, replicas []*replica) []*replica {
	ranked := append([]*replica(nil), replicas...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := score(key, ranked[i].name), score(key, ranked[j].name)
		if si != sj {
			return si > sj
		}
		return ranked[i].name < ranked[j].name
	})
	return ranked
}

// preference computes the routing order for one request: the key's
// rendezvous ranking over healthy replicas, or a scattered order
// under PolicyRandom (the experiment's control arm — successive
// requests cycle pseudo-randomly over the ring, so every key visits
// every replica).
func (rt *Router) preference(key string) []*replica {
	healthy := rt.healthySnapshot()
	if len(healthy) == 0 {
		return nil
	}
	if rt.cfg.Policy == PolicyRandom {
		// A splitmix-style scramble of a sequence counter: uniform,
		// cheap, and deliberately ignoring the key.
		seq := rt.scatter.Add(1) * 0x9e3779b97f4a7c15
		seq ^= seq >> 31
		start := int(seq % uint64(len(healthy)))
		out := make([]*replica, 0, len(healthy))
		for i := 0; i < len(healthy); i++ {
			out = append(out, healthy[(start+i)%len(healthy)])
		}
		return out
	}
	return rank(key, healthy)
}

// affinityKey derives the routing key: tenant header first (coarse,
// isolates tenants), else the body's program identity via wire, else
// a raw-bytes hash.
func (rt *Router) affinityKey(r *http.Request, endpoint string, body []byte) (key, source string) {
	if tenant := r.Header.Get(rt.cfg.TenantHeader); tenant != "" {
		return "tenant:" + tenant, "tenant"
	}
	if key, ok := wire.AffinityKey(endpoint, body); ok {
		return key, "body"
	}
	return wire.RawAffinityKey(body), "raw"
}

// ---------------------------------------------------------------------
// Proxy path

// Handler returns the router's HTTP surface: the two serving
// endpoints proxied by affinity, plus the router's own observability.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /eval", rt.proxy("/eval"))
	mux.Handle("POST /run", rt.proxy("/run"))
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /statusz", rt.handleStatusz)
	return mux
}

// failover reasons (the label values of selfrouter_failovers_total).
const (
	reasonShed      = "shed"      // 429: replica's admission queue full
	reasonDraining  = "draining"  // 503: replica draining, health poll hadn't caught it yet
	reasonTransport = "transport" // connection refused/reset mid-request
)

// proxy builds the handler for one routed endpoint.
func (rt *Router) proxy(endpoint string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := rt.route(w, r, endpoint)
		rt.m.requests.With(endpoint, strconv.Itoa(code)).Inc()
		rt.m.latency.With(endpoint).Observe(time.Since(start).Seconds())
	})
}

// route is the proxy path: buffer the body, derive the key, walk the
// key's preference list with at most one failover, relay the answer.
// Returns the status sent to the client.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, endpoint string) int {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBody+1))
	if err != nil {
		return rt.fail(w, r, http.StatusBadRequest, "request", fmt.Sprintf("reading body: %v", err))
	}
	if int64(len(body)) > rt.cfg.MaxBody {
		return rt.fail(w, r, http.StatusRequestEntityTooLarge, "request",
			fmt.Sprintf("body exceeds %d bytes", rt.cfg.MaxBody))
	}

	// One id per client request, forwarded to every attempt, echoed on
	// the answer: the replica's logs and the client see the same id.
	rid := r.Header.Get(wire.RequestIDHeader)
	if !wire.ValidRequestID(rid) {
		rid = wire.NewRequestID()
	}
	w.Header().Set(wire.RequestIDHeader, rid)

	key, source := rt.affinityKey(r, endpoint, body)
	rt.m.keys.With(source).Inc()

	prefs := rt.preference(key)
	if len(prefs) == 0 {
		rt.m.noReplica.Inc()
		return rt.fail(w, r, http.StatusServiceUnavailable, "no_replica", "no healthy replica")
	}
	if len(prefs) > 2 {
		prefs = prefs[:2] // home + one failover: bounded work under overload
	}

	var lastShed *http.Response // kept only for the final 429 relay
	var lastShedBody []byte
	for i, rep := range prefs {
		resp, err := rt.forward(r, rep, endpoint, body, rid)
		if err != nil {
			rt.markUnhealthy(rep)
			if i+1 < len(prefs) {
				rt.m.failovers.With(reasonTransport).Inc()
				continue
			}
			return rt.fail(w, r, http.StatusBadGateway, "transport",
				fmt.Sprintf("replica %s: %v", rep.name, err))
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			// Shed-aware failover: the replica told us its queue is
			// full; the next replica in the preference list may have
			// room. Honor the Retry-After either way — if the retry
			// also sheds, the client gets the larger of the two hints.
			b, _ := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
			resp.Body.Close()
			if lastShed == nil || retryAfterOf(resp) > retryAfterOf(lastShed) {
				lastShed, lastShedBody = resp, b
			}
			if i+1 < len(prefs) {
				rt.m.failovers.With(reasonShed).Inc()
				continue
			}
			return rt.relayBuffered(w, lastShed, lastShedBody)
		case http.StatusServiceUnavailable:
			// The replica is draining and the health poll hasn't
			// flipped it yet. Take it out now and fail over.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.markUnhealthy(rep)
			if i+1 < len(prefs) {
				rt.m.failovers.With(reasonDraining).Inc()
				continue
			}
			return rt.fail(w, r, http.StatusServiceUnavailable, "draining",
				fmt.Sprintf("replica %s is draining", rep.name))
		}
		rt.m.routed.With(rep.name).Inc()
		return rt.relay(w, resp)
	}
	// Unreachable: the loop always returns on its last iteration.
	return rt.fail(w, r, http.StatusInternalServerError, "internal", "routing fell through")
}

// forward re-issues the buffered request to one replica.
func (rt *Router) forward(r *http.Request, rep *replica, endpoint string, body []byte, rid string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), "POST", rep.name+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.RequestIDHeader, rid)
	if tenant := r.Header.Get(rt.cfg.TenantHeader); tenant != "" {
		req.Header.Set(rt.cfg.TenantHeader, tenant)
	}
	return rt.cfg.Client.Do(req)
}

// relay copies a replica's answer to the client: status, the headers
// that matter (content type, Retry-After), then the body streamed
// through.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) int {
	defer resp.Body.Close()
	copyRelayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode
}

// relayBuffered relays an answer whose body was already drained (the
// shed path reads bodies so it can pick the larger Retry-After).
func (rt *Router) relayBuffered(w http.ResponseWriter, resp *http.Response, body []byte) int {
	copyRelayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
	return resp.StatusCode
}

func copyRelayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// retryAfterOf parses a response's Retry-After seconds (0 if absent
// or malformed).
func retryAfterOf(resp *http.Response) int {
	n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// fail answers a router-level error in the wire error encoding, so
// clients see one vocabulary whether the failure happened here or on
// a replica.
func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, kind, msg string) int {
	rid := w.Header().Get(wire.RequestIDHeader)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	res := &wire.Result{Error: &wire.ErrorJSON{Kind: kind, Message: msg, RequestID: rid}}
	_ = res.Encode(w)
	return status
}

// ---------------------------------------------------------------------
// Observability endpoints

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WriteText(w)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: the router is ready iff it can route somewhere.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(rt.healthySnapshot()) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy replica")
		return
	}
	fmt.Fprintln(w, "ready")
}

// statuszView is the human-readable JSON snapshot of the router.
type statuszView struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Policy        string          `json:"policy"`
	TenantHeader  string          `json:"tenant_header"`
	Boot          bootStatus      `json:"boot"`
	Replicas      []replicaStatus `json:"replicas"`
}

// bootStatus is the boot-provenance block every tier of the fleet
// exposes on /statusz. The router has no world to restore, so its
// image is always "cold" and prepromoted always 0; the fields exist so
// fleet tooling can scrape one shape everywhere.
type bootStatus struct {
	Image       string  `json:"image"`
	BootSeconds float64 `json:"boot_seconds"`
	Prepromoted int64   `json:"prepromoted"`
	Ready       bool    `json:"ready"`
}

type replicaStatus struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Routed  int64  `json:"routed"`
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	view := &statuszView{
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Policy:        rt.cfg.Policy.String(),
		TenantHeader:  rt.cfg.TenantHeader,
		Boot: bootStatus{
			Image:       "cold",
			BootSeconds: rt.bootDur.Seconds(),
			Ready:       true,
		},
	}
	for _, rep := range rt.replicas {
		view.Replicas = append(view.Replicas, replicaStatus{
			Name:    rep.name,
			Healthy: rep.healthy.Load(),
			Routed:  rt.m.routed.With(rep.name).Value(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}
