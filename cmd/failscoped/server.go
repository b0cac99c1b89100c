package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"failscope/internal/detect"
	"failscope/internal/durable"
	"failscope/internal/mempool"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

// metricHelp maps the daemon's registry names to their /metrics HELP text:
// the table below plus (init) the stream.* and detect.* entries their
// packages keep next to the code that publishes them.
var metricHelp = map[string]string{
	"serve.requests":                    "HTTP requests accepted by the daemon, any endpoint",
	"serve.events_ingested":             "events applied to the streaming engine via /v1/events",
	"serve.batch_events":                "events per ingested batch",
	"serve.rejected_batches":            "POST /v1/events batches rejected, by reason (decode and apply: 400, too_large: 413)",
	"serve.request_errors":              "requests answered with an error status",
	"http.requests":                     "requests completed, by endpoint",
	"http.errors":                       "requests answered >= 400, by endpoint and status code",
	"http.request_ms":                   "request latency in milliseconds, by endpoint",
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
	"shard.merge_ms":                    "cross-shard snapshot merge latency in milliseconds",
}

func init() {
	maps.Copy(metricHelp, stream.MetricHelp)
	maps.Copy(metricHelp, detect.MetricHelp)
}

// maxBatchBytes caps a POST /v1/events body; a larger one is refused with
// a 413 before anything from it is applied. A durable daemon journals the
// body as received (durable.Store.AppendWire), as it does each -replay
// batch's encoding (replayBatch events, far under the cap), so one WAL
// record the daemon writes holds at most this many payload bytes. The
// store's own 64 MiB record bound stays behind it for library callers that
// journal by re-encoding (Store.Append).
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

// serverOptions paces the telemetry attached to the HTTP surface. The
// zero value is usable: NewHistory applies its own default cadence.
type serverOptions struct {
	historyInterval time.Duration // self-monitoring snapshot cadence
	traceSlow       time.Duration // slow-request retention threshold (0 = keep all)

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

	// Hot-path metric handles, resolved once.
	requests, ingested *obs.Counter   // serve.requests, serve.events_ingested
	batchEvents        *obs.Histogram // serve.batch_events

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
	reg := o.Metrics()
	s.requests = reg.Counter("serve.requests")
	s.ingested = reg.Counter("serve.events_ingested")
	s.batchEvents = reg.Histogram("serve.batch_events", 10, 100, 1000, 10000, 100000)
	// Pool and decoder counters are published whenever the registry is
	// read: /metrics, the history ring and the run report all carry them.
	reg.Collect("mempool", mempool.Publish)
	reg.Collect("wire.decode", s.publishDecodeStats)
	s.tracer = telemetry.NewTracer(reg, opts.traceSlow)
	s.history = telemetry.NewHistory(reg.Snapshot, opts.historyInterval)
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
	s.requests.Inc()
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
// nothing from a refused batch is applied or journaled. The body decodes
// into a pooled zero-copy batch, which a durable daemon journals as
// received, and commits through the engine's group-commit path, so
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
	applied, err := s.rt.ApplyBatchTimed(b)
	endCommit()
	if err != nil {
		s.obs.Metrics().Add(telemetry.Labeled("serve.rejected_batches", "reason", "apply"), 1)
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	a.AddSpan("engine-apply", applied)
	s.ingested.Add(int64(n))
	s.batchEvents.Observe(float64(n))
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
	setSeq(w, seq)
	return seq
}

func setSeq(w http.ResponseWriter, seq int64) {
	w.Header().Set("X-Failscope-Seq", fmt.Sprint(seq))
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	snap := s.rt.Snapshot()
	setSeq(w, snap.Seq)
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
// the Prometheus text exposition format. The export runs the registry's
// collectors, which publish the engine, pool and decoder families at this
// instant; X-Failscope-Seq is the engine sequence those stream.* gauges
// were read at.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	metrics := s.obs.Metrics().Export()
	if seq, ok := exportedSeq(metrics); ok {
		setSeq(w, seq)
	} else {
		s.seqHeader(w) // no engine publishes into this registry
	}
	telemetry.ServeExport(w, metrics, metricHelp)
}

// exportedSeq finds the stream.events gauge in a sorted registry export.
func exportedSeq(metrics []obs.Metric) (int64, bool) {
	i := sort.Search(len(metrics), func(i int) bool { return metrics[i].Name >= stream.SeqGauge })
	if i < len(metrics) && metrics[i].Name == stream.SeqGauge && metrics[i].Kind == obs.KindGauge {
		return int64(metrics[i].Value), true
	}
	return 0, false
}

// publishDecodeStats is the server's registry collector for the
// process-wide JSONL decoder counters, published as wire.decode_fast /
// wire.decode_fallback: each advances to the decoder's running total
// across every caller (ingest, replay, tests), and both families exist
// on every scrape.
func (s *server) publishDecodeStats(m *obs.Registry) {
	fast, fallback := stream.DecodeStats()
	m.Counter("wire.decode_fast").AdvanceTo(fast)
	m.Counter("wire.decode_fallback").AdvanceTo(fallback)
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
// and the ingestion counters a fleet health checker wants in one read. The
// counters come from Router.Totals, not a snapshot: a probe never merges
// shard state.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	t := s.rt.Totals()
	setSeq(w, t.Events)
	body := map[string]any{
		"status":          "ok",
		"seq":             t.Events,
		"shards":          s.rt.Shards(),
		"time":            time.Now().UTC().Format(time.RFC3339),
		"build":           buildVersion(),
		"uptime_seconds":  time.Since(s.started).Seconds(),
		"events":          t.Events,
		"events_ingested": s.ingested.Value(),
		"requests":        s.requests.Value(),
		"tickets":         t.Tickets,
		"machines":        t.Machines,
		"watermark":       t.Watermark,
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
