package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	pramcc "repro"
	"repro/graph"
	"repro/internal/obs"
)

// ccserve's own serving metrics, registered once per process alongside
// the library's (duplicate registration panics, so these live at
// package scope, not in run).
var (
	mHTTPRequests = obs.Default.Counter("pramcc_http_requests_total",
		"HTTP requests served by ccserve (all endpoints)")
	mHTTPErrors = obs.Default.Counter("pramcc_http_errors_total",
		"HTTP requests ccserve answered with a 4xx/5xx status")
)

// run parses args and either prints the metric-name list or serves;
// factored out of main for testing (the HTTP surface itself is tested
// through newHandler with httptest, without binding a port).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "ops HTTP listen address")
	var backend pramcc.Backend
	fs.TextVar(&backend, "backend", pramcc.BackendIncremental,
		"service backend: "+strings.Join(pramcc.BackendNames(), ", ")+
			" (streaming ingest and grow need incremental)")
	n := fs.Int("n", 0, "initial vertex count (ignored when -graph sets the vertex set)")
	workers := fs.Int("workers", 0, "worker goroutines for solves and ingests (0 = GOMAXPROCS)")
	graphPath := fs.String("graph", "", "preload a graph file (text edge list or binary) via Update before serving")
	dataDir := fs.String("data", "", "durable data directory: snapshots + ingest WAL, warm-started on restart (incremental backend only)")
	ckptEvery := fs.Int("checkpoint-every", 64, "with -data, checkpoint a snapshot every K logged batches")
	shards := fs.Int("shards", 0, "run the sharded multi-tenant front end with this many shards (0 = single-service mode)")
	queueCap := fs.Int("queue-cap", 0, "sharded mode: per-shard ingest queue capacity in spans (0 = default 256)")
	tenantQueueCap := fs.Int("tenant-queue-cap", 0, "sharded mode: max spans one tenant may hold queued (0 = default 32)")
	maxVertices := fs.Int("max-vertices", 0, "sharded mode: per-tenant vertex quota (0 = unlimited)")
	coalesce := fs.Int("coalesce", 0, "sharded mode: max queued spans merged into one engine batch (1 disables, 0 = default 16)")
	events := fs.String("events", "", "attach the JSON event sink: a file path, or \"stderr\"")
	listMetrics := fs.Bool("list-metrics", false, "print the registered metric names, one per line, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listMetrics {
		for _, name := range pramcc.MetricNames() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	if *events != "" {
		w := io.Writer(os.Stderr)
		if *events != "stderr" {
			f, err := os.Create(*events)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		pramcc.SetEventSink(pramcc.NewJSONEventSink(w))
		defer pramcc.SetEventSink(nil)
	}

	if *shards > 0 {
		if *graphPath != "" {
			return fmt.Errorf("ccserve: -graph preloads the single process-wide service and cannot combine with -shards (create a tenant and POST its edges instead)")
		}
		rt, err := pramcc.NewRouter(pramcc.RouterConfig{
			Shards:         *shards,
			QueueCap:       *queueCap,
			TenantQueueCap: *tenantQueueCap,
			MaxVertices:    *maxVertices,
			CoalesceLimit:  *coalesce,
			DataDir:        *dataDir,
			Options: []pramcc.Option{
				pramcc.WithBackend(backend), pramcc.WithWorkers(*workers),
				pramcc.WithCheckpointEvery(*ckptEvery),
			},
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		if *dataDir != "" {
			fmt.Fprintf(out, "recovered %d tenants from %s\n", len(rt.Tenants()), *dataDir)
		}
		fmt.Fprintf(out, "serving sharded backend=%v shards=%d tenants=%d on http://%s (endpoints: /healthz /metrics /debug/pprof/ /v1/admin/tenants /v1/t/{tenant}/...)\n",
			backend, rt.Shards(), len(rt.Tenants()), *addr)
		return newServer(*addr, newRouterHandler(rt)).ListenAndServe()
	}

	var sv *pramcc.Service
	var err error
	if *dataDir != "" {
		sv, err = pramcc.Open(*dataDir,
			pramcc.WithBackend(backend), pramcc.WithWorkers(*workers),
			pramcc.WithInitialVertices(*n), pramcc.WithCheckpointEvery(*ckptEvery))
		if err != nil {
			return err
		}
		if stats, ok := sv.RecoveryStats(); ok {
			fmt.Fprintf(out, "recovered %s: snapshot seq=%d, replayed %d batches (%d edges) in %v\n",
				*dataDir, stats.SnapshotSeq, stats.ReplayedBatches, stats.ReplayedEdges, stats.Duration)
		} else {
			fmt.Fprintf(out, "created durable store %s\n", *dataDir)
		}
	} else {
		sv, err = pramcc.NewService(*n,
			pramcc.WithBackend(backend), pramcc.WithWorkers(*workers))
		if err != nil {
			return err
		}
	}
	defer sv.Close()

	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			return err
		}
		g, err := graph.ReadAuto(f)
		f.Close()
		if err != nil {
			return err
		}
		res, err := sv.Update(nil, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "preloaded %s: n=%d m=%d components=%d wall=%v\n",
			*graphPath, g.N, g.NumEdges(), res.NumComponents, res.Stats.Wall)
	}

	fmt.Fprintf(out, "serving backend=%v n=%d on http://%s (endpoints: /healthz /metrics /debug/pprof/ /v1/...)\n",
		backend, sv.N(), *addr)
	return newServer(*addr, newHandler(sv)).ListenAndServe()
}

// Request limits shared by both serving modes. Every POST body is read
// through http.MaxBytesReader, so a client cannot make the server
// buffer more than maxBodyBytes of JSON; the timeouts stop a slow or
// stalled client from holding a connection open indefinitely.
// ReadTimeout covers a whole request, body included. There is no
// WriteTimeout, because /debug/pprof/profile streams for as long as
// the caller asks.
const (
	maxBodyBytes      = 64 << 20
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer builds the HTTP server for either mode with the request
// timeouts set.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// decodeBody decodes r's JSON body into v under the maxBodyBytes cap.
// On failure it has written the error response and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeLimited(w, r, v, maxBodyBytes)
}

// decodeLimited decodes r's JSON body into v, reading at most limit
// bytes of it; a body whose declared length is over the limit is
// refused unread. On failure it writes the error response — 413 for an
// oversized body, 400 for anything else — and returns false.
func decodeLimited(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		body := http.MaxBytesReader(w, r.Body, limit)
		if err = json.NewDecoder(body).Decode(v); err == nil {
			// Decode stops at the end of the first value, so a body
			// sent without a length could run on past the limit:
			// read it to the end, and refuse it if it does.
			_, err = io.Copy(io.Discard, body)
		}
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		httpError(w, http.StatusBadRequest, "bad body: "+err.Error())
	}
	return false
}

// notFound is the catch-all for routes no handler claims: the JSON
// error contract holds everywhere, so clients never parse a plain-text
// or empty 404 body.
func notFound(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotFound, "not found")
}

// newHandler builds the full ops surface over sv: health, metrics,
// pprof, and the JSON serving endpoints.
func newHandler(sv *pramcc.Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", counted(notFound))
	mux.HandleFunc("/healthz", counted(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "ok",
			"backend":    sv.Backend().String(),
			"n":          sv.N(),
			"components": sv.NumComponents(),
		})
	}))
	mux.HandleFunc("/metrics", counted(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := pramcc.WriteMetrics(w); err != nil {
			mHTTPErrors.Inc()
		}
	}))
	// net/http/pprof registers on http.DefaultServeMux as a side effect
	// of its import; wire its handlers into our mux explicitly so the
	// profiles are served regardless of which mux the server uses.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/v1/ingest", counted(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req struct {
			Edges [][2]int `json:"edges"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		start := time.Now()
		res, err := sv.Ingest(r.Context(), req.Edges)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"edges":      len(req.Edges),
			"components": res.NumComponents,
			"wall_ms":    float64(time.Since(start).Nanoseconds()) / 1e6,
		})
	}))
	mux.HandleFunc("/v1/grow", counted(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req struct {
			N int `json:"n"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		if err := sv.Grow(req.N); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"n":          sv.N(),
			"components": sv.NumComponents(),
		})
	}))
	mux.HandleFunc("/v1/same", counted(func(w http.ResponseWriter, r *http.Request) {
		u, errU := strconv.Atoi(r.URL.Query().Get("u"))
		v, errV := strconv.Atoi(r.URL.Query().Get("v"))
		if errU != nil || errV != nil {
			httpError(w, http.StatusBadRequest, "need integer query params u and v")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"u": u, "v": v, "same": sv.SameComponent(u, v),
		})
	}))
	mux.HandleFunc("/v1/stats", counted(func(w http.ResponseWriter, r *http.Request) {
		snap := sv.Snapshot()
		stats := map[string]any{
			"backend":    sv.Backend().String(),
			"n":          len(snap.Labels),
			"components": snap.NumComponents,
			"rounds":     snap.Stats.Rounds,
			"workers":    snap.Stats.Workers,
			"wall_ms":    float64(snap.Stats.Wall.Nanoseconds()) / 1e6,
		}
		if seq, ok := sv.DurableSeq(); ok {
			stats["durable_seq"] = seq
			if rec, ok := sv.RecoveryStats(); ok {
				stats["recovered_batches"] = rec.ReplayedBatches
			}
		}
		writeJSON(w, http.StatusOK, stats)
	}))
	return mux
}

// newRouterHandler builds the sharded-mode surface over rt: health,
// metrics, pprof, tenant admin, and the per-tenant JSON endpoints.
func newRouterHandler(rt *pramcc.Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", counted(notFound))
	mux.HandleFunc("/healthz", counted(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"shards":  rt.Shards(),
			"tenants": len(rt.Tenants()),
		})
	}))
	mux.HandleFunc("/metrics", counted(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := pramcc.WriteMetrics(w); err != nil {
			mHTTPErrors.Inc()
		}
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/v1/admin/tenants", counted(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var req struct {
				Tenant string `json:"tenant"`
				N      int    `json:"n"`
			}
			if !decodeBody(w, r, &req) {
				return
			}
			if !pramcc.ValidTenantID(req.Tenant) {
				httpError(w, http.StatusBadRequest, "invalid tenant id (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric)")
				return
			}
			tn, err := rt.CreateTenant(req.Tenant, req.N)
			if err != nil {
				tenantError(w, err)
				return
			}
			writeJSON(w, http.StatusCreated, tenantStatsJSON(tn.Stats()))
		case http.MethodGet:
			ts := rt.Tenants()
			list := make([]map[string]any, len(ts))
			for i, tn := range ts {
				list[i] = tenantStatsJSON(tn.Stats())
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"shards":  rt.Shards(),
				"tenants": list,
			})
		default:
			httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
		}
	}))
	mux.HandleFunc("/v1/t/{tenant}/ingest", counted(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		tn, err := rt.Tenant(r.PathValue("tenant"))
		if err != nil {
			tenantError(w, err)
			return
		}
		var req struct {
			Edges [][2]int `json:"edges"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		start := time.Now()
		components, err := tn.Ingest(r.Context(), req.Edges)
		if err != nil {
			tenantError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":     tn.ID(),
			"edges":      len(req.Edges),
			"components": components,
			"wall_ms":    float64(time.Since(start).Nanoseconds()) / 1e6,
		})
	}))
	mux.HandleFunc("/v1/t/{tenant}/grow", counted(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		tn, err := rt.Tenant(r.PathValue("tenant"))
		if err != nil {
			tenantError(w, err)
			return
		}
		var req struct {
			N int `json:"n"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		if err := tn.Grow(req.N); err != nil {
			tenantError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":     tn.ID(),
			"n":          tn.N(),
			"components": tn.NumComponents(),
		})
	}))
	mux.HandleFunc("/v1/t/{tenant}/same", counted(func(w http.ResponseWriter, r *http.Request) {
		tn, err := rt.Tenant(r.PathValue("tenant"))
		if err != nil {
			tenantError(w, err)
			return
		}
		u, errU := strconv.Atoi(r.URL.Query().Get("u"))
		v, errV := strconv.Atoi(r.URL.Query().Get("v"))
		if errU != nil || errV != nil {
			httpError(w, http.StatusBadRequest, "need integer query params u and v")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant": tn.ID(), "u": u, "v": v, "same": tn.SameComponent(u, v),
		})
	}))
	mux.HandleFunc("/v1/t/{tenant}/stats", counted(func(w http.ResponseWriter, r *http.Request) {
		tn, err := rt.Tenant(r.PathValue("tenant"))
		if err != nil {
			tenantError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tenantStatsJSON(tn.Stats()))
	}))
	return mux
}

// tenantStatsJSON renders one tenant's stats for admin listings and
// the stats endpoint.
func tenantStatsJSON(st pramcc.TenantStats) map[string]any {
	m := map[string]any{
		"tenant":         st.ID,
		"shard":          st.Shard,
		"n":              st.N,
		"components":     st.NumComponents,
		"queued":         st.Queued,
		"ingested_spans": st.IngestedSpans,
		"ingested_edges": st.IngestedEdges,
	}
	if st.Durable {
		m["durable_seq"] = st.DurableSeq
	}
	return m
}

// tenantError maps the router's error taxonomy onto HTTP statuses:
// pressure is retryable (429), quota violations are not (422), and
// identity problems are 404/409.
func tenantError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pramcc.ErrUnknownTenant):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, pramcc.ErrOverloaded), errors.Is(err, pramcc.ErrTenantBacklog):
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, pramcc.ErrVertexQuota):
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	case errors.Is(err, pramcc.ErrTenantExists):
		httpError(w, http.StatusConflict, err.Error())
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// counted wraps a handler with the request counter.
func counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mHTTPRequests.Inc()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	mHTTPErrors.Inc()
	writeJSON(w, code, map[string]any{"error": msg})
}
