package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"failscope/internal/durable"
	"failscope/internal/mempool"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

// metricHelp maps the daemon's registry names to their /metrics HELP text.
var metricHelp = map[string]string{
	"serve.requests":                    "HTTP requests accepted by the daemon, any endpoint",
	"serve.events_ingested":             "events applied to the streaming engine via /v1/events",
	"serve.batch_events":                "events per ingested batch",
	"serve.rejected_batches":            "POST /v1/events batches rejected, by reason (decode and apply: 400, too_large: 413)",
	"serve.request_errors":              "requests answered with an error status",
	"http.requests":                     "requests completed, by endpoint",
	"http.errors":                       "requests answered >= 400, by endpoint and status code",
	"http.request_ms":                   "request latency in milliseconds, by endpoint",
	"stream.events":                     "events applied by the streaming engine",
	"stream.apply_ms":                   "engine batch-apply latency in milliseconds",
	"stream.state_lock_ms":              "milliseconds a state image (checkpoint) held the engine lock (ingest waits behind it)",
	"stream.watermark_unix_seconds":     "engine event-time watermark as a unix timestamp",
	"detect.alerts_active":              "failure alerts currently raised by the online detector",
	"detect.alerts_raised":              "failure alerts raised since start, any source",
	"detect.alerts_cleared":             "failure alerts cleared since start (confirmed or expired)",
	"detect.alerts_confirmed":           "alerts confirmed by a crash ticket inside the horizon",
	"detect.alerts_expired":             "alerts expired without a crash (false alarms)",
	"detect.alerts_raised_anomaly":      "alerts raised by the CUSUM usage-anomaly detector",
	"detect.machines":                   "machines the online detector is tracking",
	"detect.lead_time_ms":               "milliseconds from alert raise to the confirming crash ticket",
	"wire.decode_fast":                  "JSONL lines decoded by the zero-copy fast scanner",
	"wire.decode_fallback":              "JSONL lines that fell back to encoding/json",
	"durable.wal_bytes":                 "bytes appended to the write-ahead log this process",
	"durable.wal_records":               "batches appended to the write-ahead log this process",
	"durable.segments_live":             "WAL segment files currently on disk",
	"durable.checkpoint_seq":            "engine sequence of the newest completed checkpoint",
	"durable.fsync_ms":                  "WAL group-commit fsync latency in milliseconds",
	"durable.checkpoint_ms":             "checkpoint write latency in milliseconds",
	"durable.checkpoints_invalid":       "checkpoints that failed integrity validation at recovery",
	"durable.recovery_checkpoint_seq":   "sequence of the checkpoint the last recovery restored",
	"durable.recovery_replayed_records": "WAL records replayed by the last recovery",
	"durable.recovery_replayed_events":  "events replayed into the engine by the last recovery",
	"durable.recovery_replay_ms":        "wall time of the last recovery in milliseconds",
	"shard.events":                      "events applied, by shard",
	"shard.queue_depth":                 "batches waiting in a shard's ingest queue",
	"shard.merge_ms":                    "cross-shard snapshot merge latency in milliseconds",
}

// maxBatchBytes caps a POST /v1/events body; a larger one is refused with
// a 413 before anything from it is applied. It sits well below the WAL's
// 64 MiB record bound because the journal re-encodes each batch
// canonically, which can be many times longer than a terse body (every
// payload field written out, "<" escaped to six bytes), so
// durable.Store.Append keeps its own bound behind this one.
const maxBatchBytes = 8 << 20

// Connection timeouts: how long a client may take to send its request
// headers, to send the whole request (a body of up to maxBatchBytes), and
// to idle between keep-alive requests. Generous for a batch over a slow
// link, short enough that a client trickling bytes cannot pin a
// connection.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in failscoped's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serverOptions sizes the telemetry attached to the HTTP surface. The zero
// value is usable: NewTracer and NewHistory apply their own defaults.
type serverOptions struct {
	historyInterval time.Duration // self-monitoring snapshot cadence
	historySize     int           // history ring capacity (snapshots)
	traceSlow       time.Duration // slow-request retention threshold (0 = keep all)
	traceBuffer     int           // slow/errored request ring capacity

	store    *durable.Store        // durable mode (nil = in-memory only)
	recovery *durable.RecoveryInfo // what boot-time recovery reconstructed
}

// server is the failscoped HTTP surface: an ingestion endpoint feeding the
// streaming engine plus query endpoints that snapshot it, and the
// telemetry surface (/metrics, /v1/metrics/history, /debug/requests)
// observing both. The handler owns no state beyond the engine, the
// observer and the telemetry rings, so the httptest suite can exercise it
// without a listener.
type server struct {
	rt       *shard.Router
	obs      *obs.Observer
	mux      *http.ServeMux
	tracer   *telemetry.Tracer
	history  *telemetry.History
	started  time.Time
	store    *durable.Store
	recovery *durable.RecoveryInfo

	// Last stream.DecodeStats readings already folded into the registry;
	// handleMetrics publishes the delta so wire.decode_* stay counters.
	decMu       sync.Mutex
	pubFast     int64
	pubFallback int64

	closeOnce sync.Once
}

func newServer(rt *shard.Router, o *obs.Observer, opts serverOptions) *server {
	// The telemetry surface needs a live registry even when the user asked
	// for no observer output, so the daemon always observes itself.
	if o == nil {
		o = obs.NewObserver("failscoped")
	}
	s := &server{
		rt: rt, obs: o, mux: http.NewServeMux(), started: time.Now(),
		store: opts.store, recovery: opts.recovery,
	}
	s.tracer = telemetry.NewTracer(o.Metrics(), opts.traceBuffer, opts.traceSlow)
	s.history = telemetry.NewHistory(o.Metrics().Snapshot, opts.historyInterval, opts.historySize)
	s.history.Start()

	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.tracer.Wrap(pattern, h))
	}
	handle("/v1/events", s.handleEvents)
	handle("/v1/report", s.handleReport)
	handle("/v1/rates", s.handleRates)
	handle("/v1/fidelity", s.handleFidelity)
	handle("/v1/alerts", s.handleAlerts)
	handle("/healthz", s.handleHealth)
	handle("/metrics", s.handleMetrics)
	handle("/v1/metrics/history", s.history.Handler().ServeHTTP)
	handle("/debug/requests", s.tracer.Handler().ServeHTTP)
	return s
}

// Close stops the history sampler. Idempotent.
func (s *server) Close() { s.closeOnce.Do(s.history.Stop) }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Add("serve.requests", 1)
	s.mux.ServeHTTP(w, r)
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.obs.Metrics().Add("serve.encode_errors", 1)
	}
}

func (s *server) fail(w http.ResponseWriter, r *http.Request, code int, err error) {
	s.obs.Metrics().Add("serve.request_errors", 1)
	telemetry.ActiveFrom(r.Context()).SetError(err.Error())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleEvents ingests one JSONL event batch. Malformed input is a 400
// whose error names the offending line, a body over maxBatchBytes a 413;
// nothing from a refused batch is applied. The body decodes into a pooled
// zero-copy batch and commits through the engine's group-commit path, so
// concurrent posts share one engine-lock acquisition per group instead of
// contending per batch. The request trace carries a span per stage —
// decode, group-commit (queueing plus apply), engine-apply (this batch's
// own time under the engine lock).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if r.ContentLength > maxBatchBytes {
		s.rejectTooLarge(w, r)
		return
	}
	body := &cappedBody{r: http.MaxBytesReader(w, r.Body, maxBatchBytes)}
	a := telemetry.ActiveFrom(r.Context())
	b := stream.GetBatch()
	defer b.Release()
	endDecode := a.StartSpan("decode")
	n, err := b.DecodeJSONLInto(body)
	endDecode()
	if body.over {
		s.rejectTooLarge(w, r)
		return
	}
	if err != nil {
		s.obs.Metrics().Add(telemetry.Labeled("serve.rejected_batches", "reason", "decode"), 1)
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	a.SetItems(n)
	endCommit := a.StartSpan("group-commit")
	applied, err := s.rt.ApplyTimed(b.Events)
	endCommit()
	if err != nil {
		s.obs.Metrics().Add(telemetry.Labeled("serve.rejected_batches", "reason", "apply"), 1)
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	a.AddSpan("engine-apply", applied)
	s.obs.Metrics().Add("serve.events_ingested", int64(n))
	s.obs.Metrics().Histogram("serve.batch_events", 10, 100, 1000, 10000, 100000).Observe(float64(n))
	s.writeJSON(w, map[string]int{"applied": n})
}

// cappedBody records whether its http.MaxBytesReader hit the cap. The
// decoder cannot be relied on to surface that error: the read that trips
// the cap ends the body mid-line, and the truncated line's syntax error
// comes first.
type cappedBody struct {
	r    io.Reader
	over bool
}

func (c *cappedBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		c.over = true
	}
	return n, err
}

func (s *server) rejectTooLarge(w http.ResponseWriter, r *http.Request) {
	s.obs.Metrics().Add(telemetry.Labeled("serve.rejected_batches", "reason", "too_large"), 1)
	s.fail(w, r, http.StatusRequestEntityTooLarge, fmt.Errorf("batch body exceeds %d bytes", maxBatchBytes))
}

// seqHeader stamps the response with the engine's apply generation so
// scrapes of /metrics, /v1/alerts, /v1/report and /healthz can be
// correlated: two responses with the same X-Failscope-Seq observed the
// same applied-event prefix of the stream.
func (s *server) seqHeader(w http.ResponseWriter) int64 {
	seq := s.rt.Seq()
	w.Header().Set("X-Failscope-Seq", fmt.Sprint(seq))
	return seq
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	snap := s.rt.Snapshot()
	w.Header().Set("X-Failscope-Seq", fmt.Sprint(snap.Seq))
	s.writeJSON(w, snap)
}

// handleAlerts serves the online detector's live state: active alerts,
// the recently-cleared ring and the confirmation accounting. 404 when the
// daemon runs with detection disabled.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	snap := s.rt.Alerts()
	if snap == nil {
		s.fail(w, r, http.StatusNotFound, fmt.Errorf("detection disabled (-detect=false)"))
		return
	}
	seq := s.seqHeader(w)
	s.writeJSON(w, map[string]any{
		"seq":       seq,
		"detection": snap,
	})
}

// handleRates serves just the Fig. 2 weekly-rate section — the cheap
// polling endpoint for dashboards.
func (s *server) handleRates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	snap := s.rt.Snapshot()
	s.writeJSON(w, map[string]any{
		"watermark": snap.Watermark,
		"tickets":   snap.Tickets,
		"rates":     snap.Report.WeeklyRates,
	})
}

func (s *server) handleFidelity(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	s.writeJSON(w, s.rt.Snapshot().Fidelity())
}

// handleMetrics serves the observer registry (plus Go runtime gauges) in
// the Prometheus text exposition format. Buffer-pool hit/miss gauges are
// refreshed first so every scrape carries the live reuse picture.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	mempool.Publish(s.obs.Metrics())
	s.publishDecodeStats()
	s.rt.Publish(s.obs.Metrics())
	s.seqHeader(w)
	telemetry.Handler(s.obs.Metrics(), metricHelp).ServeHTTP(w, r)
}

// publishDecodeStats folds the process-wide JSONL decoder counters into
// the registry as wire.decode_fast / wire.decode_fallback. The decoder
// counts cumulatively across every caller (ingest, replay, tests), so the
// scrape handler publishes deltas against what it last saw, keeping the
// registry values monotone counters.
func (s *server) publishDecodeStats() {
	fast, fallback := stream.DecodeStats()
	s.decMu.Lock()
	dFast, dFallback := fast-s.pubFast, fallback-s.pubFallback
	s.pubFast, s.pubFallback = fast, fallback
	s.decMu.Unlock()
	m := s.obs.Metrics()
	if dFast > 0 {
		m.Add("wire.decode_fast", dFast)
	} else {
		m.Counter("wire.decode_fast") // ensure the family exists on every scrape
	}
	if dFallback > 0 {
		m.Add("wire.decode_fallback", dFallback)
	} else {
		m.Counter("wire.decode_fallback")
	}
}

// buildVersion reads the module and VCS stamp out of the binary once.
var buildVersion = sync.OnceValue(func() map[string]string {
	out := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["go"] = bi.GoVersion
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		out["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out["revision"] = kv.Value
		case "vcs.time":
			out["build_time"] = kv.Value
		}
	}
	return out
})

// handleHealth is the liveness probe, enriched with build identity, uptime
// and the ingestion counters a fleet health checker wants in one read.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.rt.Snapshot()
	w.Header().Set("X-Failscope-Seq", fmt.Sprint(snap.Seq))
	body := map[string]any{
		"status":          "ok",
		"seq":             snap.Seq,
		"shards":          s.rt.Shards(),
		"time":            time.Now().UTC().Format(time.RFC3339),
		"build":           buildVersion(),
		"uptime_seconds":  time.Since(s.started).Seconds(),
		"events":          snap.Events,
		"events_ingested": s.obs.Metrics().Counter("serve.events_ingested").Value(),
		"requests":        s.obs.Metrics().Counter("serve.requests").Value(),
		"tickets":         snap.Tickets,
		"machines":        snap.Machines,
		"watermark":       snap.Watermark,
	}
	if s.store != nil {
		body["durable"] = map[string]any{
			"enabled":        true,
			"checkpoint_seq": s.store.CheckpointSeq(),
			"recovery":       s.recovery,
		}
	}
	s.writeJSON(w, body)
}
