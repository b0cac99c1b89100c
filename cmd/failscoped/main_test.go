package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"failscope"
	"failscope/internal/detect"
	"failscope/internal/durable"
	"failscope/internal/fidelity"
	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
	"failscope/internal/textmine"
)

var testWindow = model.Window{
	Start: time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC),
	End:   time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC),
}

func testServer(t *testing.T) (*server, *stream.Engine) {
	t.Helper()
	eng, err := stream.NewEngine(stream.Config{Observation: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(shard.Single(eng), obs.NewObserver("failscoped-test"), serverOptions{})
	t.Cleanup(srv.Close)
	return srv, eng
}

// testBatch is a tiny but complete JSONL batch: two machines, a crash
// ticket on each, and one two-server incident.
func testBatch(t *testing.T) string {
	t.Helper()
	at := testWindow.Start.Add(10 * 24 * time.Hour)
	events := []stream.Event{
		{Type: "machine", Machine: &model.Machine{ID: "pm-1", Kind: model.PM, System: model.SysI}},
		{Type: "machine", Machine: &model.Machine{ID: "vm-1", Kind: model.VM, System: model.SysI}},
		{Type: "ticket", Ticket: &model.Ticket{
			ID: "t1", ServerID: "pm-1", System: model.SysI, Opened: at,
			Closed: at.Add(3 * time.Hour), IsCrash: true, Class: model.ClassHardware, IncidentID: "i1",
		}},
		{Type: "ticket", Ticket: &model.Ticket{
			ID: "t2", ServerID: "vm-1", System: model.SysI, Opened: at.Add(time.Hour),
			Closed: at.Add(2 * time.Hour), IsCrash: true, Class: model.ClassHardware, IncidentID: "i1",
		}},
		{Type: "incident", Incident: &model.Incident{
			ID: "i1", Class: model.ClassHardware, Time: at, Servers: []model.MachineID{"pm-1", "vm-1"},
		}},
	}
	var sb strings.Builder
	if err := stream.EncodeJSONL(&sb, events); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEndpoints drives the full surface: ingest a batch, then query every
// endpoint and check the numbers flowed through.
func TestEndpoints(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(testBatch(t)))
	if err != nil {
		t.Fatal(err)
	}
	var applied struct{ Applied int }
	if err := json.NewDecoder(res.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || applied.Applied != 5 {
		t.Fatalf("ingest: status %d applied %d, want 200 and 5", res.StatusCode, applied.Applied)
	}

	res, err = http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	var snap stream.Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatalf("report decode: %v", err)
	}
	res.Body.Close()
	if snap.Tickets != 2 || snap.CrashTickets != 2 || snap.Machines != 2 || snap.Incidents != 1 {
		t.Fatalf("report counters = %+v", snap)
	}
	if snap.Report == nil || snap.Report.Spatial.Incidents != 1 || snap.Report.Spatial.MaxServers != 2 {
		t.Fatalf("report spatial = %+v", snap.Report.Spatial)
	}
	if snap.Report.RepairPM.Summary.N != 1 || snap.Report.RepairPM.Summary.Mean != 3 {
		t.Fatalf("report repair = %+v", snap.Report.RepairPM.Summary)
	}

	res, err = http.Get(ts.URL + "/v1/rates")
	if err != nil {
		t.Fatal(err)
	}
	var rates struct {
		Tickets int64
		Rates   []struct {
			Kind    model.MachineKind
			Servers int
		}
	}
	if err := json.NewDecoder(res.Body).Decode(&rates); err != nil {
		t.Fatalf("rates decode: %v", err)
	}
	res.Body.Close()
	if rates.Tickets != 2 || len(rates.Rates) != 12 {
		t.Fatalf("rates: tickets %d rows %d, want 2 and 12", rates.Tickets, len(rates.Rates))
	}

	res, err = http.Get(ts.URL + "/v1/fidelity")
	if err != nil {
		t.Fatal(err)
	}
	var sb fidelity.Scoreboard
	if err := json.NewDecoder(res.Body).Decode(&sb); err != nil {
		t.Fatalf("fidelity decode: %v", err)
	}
	res.Body.Close()
	if len(sb.Bands) == 0 {
		t.Fatal("fidelity: no bands")
	}

	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string
		Events int64
	}
	if err := json.NewDecoder(res.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if health.Status != "ok" || health.Events != 5 {
		t.Fatalf("healthz = %+v", health)
	}

	// Wrong methods are 405s.
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/events"},
		{http.MethodPost, "/v1/report"},
		{http.MethodPost, "/v1/rates"},
		{http.MethodPost, "/v1/fidelity"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, res.StatusCode)
		}
	}
}

// TestReportOnEmptyEngine guards the JSON path against NaNs: a snapshot
// with no data at all must still serialize.
func TestReportOnEmptyEngine(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/v1/report", "/v1/rates", "/v1/fidelity", "/healthz"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("GET %s on empty engine: status %d (%s)", path, res.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Errorf("GET %s: invalid JSON: %.120s", path, body)
		}
	}
}

// TestMalformedJSONLNamesTheLine: a bad record must 400 with the 1-based
// line number in the error, and nothing from the batch may be applied.
func TestMalformedJSONLNamesTheLine(t *testing.T) {
	srv, eng := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"type":"machine","machine":{"id":"pm-9","kind":1,"system":1}}
{"type":"advance","time":"2012-08-01T00:00:00Z"}
{"type":"ticket","ticket":{{bad
`
	res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.StatusCode)
	}
	if !strings.Contains(string(msg), "line 3") {
		t.Fatalf("error %q does not name line 3", msg)
	}
	if snap := eng.Snapshot(); snap.Events != 0 || snap.Machines != 0 {
		t.Fatalf("bad batch partially applied: %+v", snap)
	}
}

// TestGracefulShutdownDrains serves on an ephemeral port alongside a debug
// server (no -debug-addr port collision), starts an ingest whose body is
// still streaming, initiates shutdown, and verifies the in-flight request
// completes with a 200 before the server exits.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, eng := testServer(t)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()

	// The debug listener binds its own ephemeral port — starting both must
	// never collide.
	debugAddr, stopDebug, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("debug server alongside API server: %v", err)
	}
	defer stopDebug()
	if debugAddr == l.Addr().String() {
		t.Fatalf("debug server bound the API address %s", debugAddr)
	}

	pr, pw := io.Pipe()
	reqDone := make(chan error, 1)
	var status int
	go func() {
		res, err := http.Post("http://"+l.Addr().String()+"/v1/events", "application/jsonl", pr)
		if err == nil {
			status = res.StatusCode
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
		}
		reqDone <- err
	}()

	// First half of the batch, then shutdown begins mid-request.
	if _, err := io.WriteString(pw, `{"type":"machine","machine":{"id":"pm-1","kind":1,"system":1}}`+"\n"); err != nil {
		t.Fatal(err)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()

	// Give shutdown a moment to stop accepting, then finish the body: the
	// in-flight request must drain, not be cut off.
	time.Sleep(50 * time.Millisecond)
	fmt.Fprintln(pw, `{"type":"machine","machine":{"id":"vm-1","kind":2,"system":1}}`)
	pw.Close()

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if snap := eng.Snapshot(); snap.Machines != 2 {
		t.Fatalf("drained batch applied %d machines, want 2", snap.Machines)
	}
}

// TestReplayEventsPacingAndStop covers the replay loop: full-speed replay
// applies everything; a paced replay waits out the event-time gap between
// batches; a closed stop channel halts it before the first batch.
func TestReplayEventsPacingAndStop(t *testing.T) {
	newRouter := func() (*shard.Router, *stream.Engine) {
		eng, err := stream.NewEngine(stream.Config{Observation: testWindow})
		if err != nil {
			t.Fatal(err)
		}
		return shard.Single(eng), eng
	}
	events, err := failscope.ReadStreamEvents(strings.NewReader(testBatch(t)))
	if err != nil {
		t.Fatal(err)
	}
	rt, eng := newRouter()
	if err := replayEvents(rt, nil, events, 0, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); snap.Events != int64(len(events)) {
		t.Fatalf("replayed %d events, want %d", snap.Events, len(events))
	}

	// Two batches an event-time hour apart, at an hour per 50ms of wall time.
	first, second := testWindow.Start, testWindow.Start.Add(time.Hour)
	paced := make([]stream.Event, 2*replayBatch)
	for i := range paced {
		at := &first
		if i >= replayBatch {
			at = &second
		}
		paced[i] = stream.Event{Type: "advance", Time: at}
	}
	rt, eng = newRouter()
	const gap = 50 * time.Millisecond
	t0 := time.Now()
	if err := replayEvents(rt, nil, paced, float64(time.Hour/gap), make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < gap {
		t.Errorf("paced replay took %v, want >= %v", took, gap)
	}
	if seq := eng.Seq(); seq != int64(len(paced)) {
		t.Fatalf("paced replay applied %d events, want %d", seq, len(paced))
	}

	stopped := make(chan struct{})
	close(stopped)
	rt, eng = newRouter()
	if err := replayEvents(rt, nil, events, 0, stopped); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); snap.Events != 0 {
		t.Fatalf("stopped replay still applied %d events", snap.Events)
	}
}

// wireCounter is a durable store that counts how the engine journaled
// each batch: from its body (AppendWire) or by re-encoding it (Append).
type wireCounter struct {
	*durable.Store
	wire, reencoded int
}

func (c *wireCounter) AppendWire(startSeq int64, count int, jsonl []byte) error {
	c.wire++
	return c.Store.AppendWire(startSeq, count, jsonl)
}

func (c *wireCounter) Append(startSeq int64, events []stream.Event) error {
	c.reencoded++
	return c.Store.Append(startSeq, events)
}

// appendOnly hides a journal's AppendWire, so the engine journals every
// batch by Append.
type appendOnly struct{ stream.Journal }

// replayStream is a three-batch stream of machines and crash tickets.
func replayStream() []stream.Event {
	events := make([]stream.Event, 0, 2*replayBatch+100)
	for m := 0; m < 50; m++ {
		events = append(events, stream.Event{Type: "machine", Machine: &model.Machine{
			ID: model.MachineID(fmt.Sprintf("pm-%02d", m)), Kind: model.PM, System: model.SysI,
		}})
	}
	for i := 0; len(events) < cap(events); i++ {
		at := testWindow.Start.Add(time.Duration(i) * time.Hour)
		events = append(events, stream.Event{Type: "ticket", Ticket: &model.Ticket{
			ID: fmt.Sprintf("t%d", i), ServerID: model.MachineID(fmt.Sprintf("pm-%02d", i%50)),
			System: model.SysI, Opened: at, Closed: at.Add(time.Hour),
			IsCrash: true, Class: model.ClassHardware,
		}})
	}
	return events
}

// TestReplayEventsJournalsWire replays into a durable engine: every batch
// reaches the WAL through AppendWire, the WAL is byte-identical to one
// written by Store.Append of the same batches, and recovering it rebuilds
// the live engine's state image.
func TestReplayEventsJournalsWire(t *testing.T) {
	events := replayStream()
	// journaled returns an engine journaled to a store in dir, and the
	// store's Close.
	journaled := func(dir string, wrap func(*durable.Store) stream.Journal) (*stream.Engine, func() error) {
		t.Helper()
		st, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := stream.NewEngine(stream.Config{Observation: testWindow})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetJournal(wrap(st))
		return eng, st.Close
	}
	image := func(eng *stream.Engine) []byte {
		t.Helper()
		var img bytes.Buffer
		if _, err := eng.WriteState(&img); err != nil {
			t.Fatal(err)
		}
		return img.Bytes()
	}

	wireDir, refDir := t.TempDir(), t.TempDir()
	var counter *wireCounter
	live, closeLive := journaled(wireDir, func(st *durable.Store) stream.Journal {
		counter = &wireCounter{Store: st}
		return counter
	})
	if err := replayEvents(shard.Single(live), nil, events, 0, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	ref, closeRef := journaled(refDir, func(st *durable.Store) stream.Journal { return appendOnly{st} })
	for lo := 0; lo < len(events); lo += replayBatch {
		if err := ref.Apply(events[lo:min(lo+replayBatch, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(closeLive(), closeRef()); err != nil {
		t.Fatal(err)
	}
	if batches := (len(events) + replayBatch - 1) / replayBatch; counter.wire != batches || counter.reencoded != 0 {
		t.Errorf("replay journaled %d batches from their body and %d by re-encoding, want %d and 0",
			counter.wire, counter.reencoded, batches)
	}

	const segment = "wal-0000000000000001.log"
	got, err := os.ReadFile(filepath.Join(wireDir, segment))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, segment))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replay WAL (%d bytes) differs from the Store.Append WAL (%d bytes)", len(got), len(want))
	}

	st, err := durable.Open(wireDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recovered, err := stream.NewEngine(stream.Config{Observation: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(recovered), image(live)) {
		t.Error("recovered state image differs from the live engine's")
	}
}

// TestReportWithClassifierSerializes is the regression test for the
// confusion-matrix JSON hazard: with a classifier attached, the snapshot
// carries an ingest.ClassifierReport whose ConfusionMatrix is keyed by
// [2]int — /v1/report must still produce valid JSON, both before any
// ticket is scored (NaN accuracy guard) and after ingestion.
func TestReportWithClassifierSerializes(t *testing.T) {
	eng, err := stream.NewEngine(stream.Config{
		Observation: testWindow,
		Classifier:  textmine.NewOnlineClassifier(nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(shard.Single(eng), obs.NewObserver("failscoped-test"), serverOptions{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, stage := range []string{"empty", "ingested"} {
		res, err := http.Get(ts.URL + "/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK || !json.Valid(body) || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes, valid=%v", stage, res.StatusCode, len(body), json.Valid(body))
		}
		var snap stream.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("%s: decode: %v", stage, err)
		}
		if snap.Classifier == nil || snap.Classifier.Confusion == nil {
			t.Fatalf("%s: classifier report missing from snapshot", stage)
		}
		if stage == "ingested" {
			if snap.Classifier.TestDocs != 2 || snap.Classifier.Confusion.Total != 2 {
				t.Fatalf("scored %d docs, confusion total %d, want 2 and 2", snap.Classifier.TestDocs, snap.Classifier.Confusion.Total)
			}
		}
		if stage == "empty" {
			res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(testBatch(t)))
			if err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Fatalf("ingest: status %d", res.StatusCode)
			}
		}
	}
}

// TestTelemetryEndpoints drives the live-telemetry surface: ingest good
// and bad batches, then check /metrics is conformant and carries the RED
// metrics (including latency quantiles and the labeled rejected-batch
// counter), /v1/metrics/history accumulates snapshots on cadence, and
// /debug/requests retained the errored request with its spans.
func TestTelemetryEndpoints(t *testing.T) {
	o := obs.NewObserver("failscoped-telemetry-test")
	eng, err := stream.NewEngine(stream.Config{Observation: testWindow, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(shard.Single(eng), o, serverOptions{ // engine and server share one registry
		historyInterval: 5 * time.Millisecond,
		traceSlow:       0, // retain every request
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(testBatch(t)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", res.StatusCode)
	}
	if res.Header.Get("X-Trace-Id") == "" {
		t.Error("ingest response missing X-Trace-Id")
	}
	res, err = http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader("{bad\n"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ingest status = %d, want 400", res.StatusCode)
	}
	snapshotReads := []string{"/v1/report", "/v1/rates", "/v1/fidelity"}
	for _, ep := range snapshotReads {
		res, err = http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", ep, res.StatusCode)
		}
	}

	// /metrics must pass the conformance parser and carry the counters.
	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseMetrics(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/metrics not conformant: %v", err)
	}
	if got := fams.Value("serve_events_ingested_total"); got != 5 {
		t.Errorf("serve_events_ingested_total = %v, want 5", got)
	}
	if got := fams.Value("http_requests_total", "endpoint", "/v1/events"); got != 2 {
		t.Errorf("http_requests_total{endpoint=/v1/events} = %v, want 2", got)
	}
	if got := fams.Value("serve_rejected_batches_total", "reason", "decode"); got != 1 {
		t.Errorf("serve_rejected_batches_total{reason=decode} = %v, want 1", got)
	}
	if got := fams.Value("http_errors_total", "endpoint", "/v1/events", "code", "400"); got != 1 {
		t.Errorf("http_errors_total = %v, want 1", got)
	}
	hist := fams.Get("http_request_ms")
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("http_request_ms family = %+v, want histogram", hist)
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		if v := fams.Value("http_request_ms_"+q, "endpoint", "/v1/events"); math.IsNaN(v) {
			t.Errorf("http_request_ms_%s missing from /metrics", q)
		}
	}
	if v := fams.Value("stream_watermark_unix_seconds"); math.IsNaN(v) || v <= 0 {
		t.Errorf("stream_watermark_unix_seconds = %v, want > 0", v)
	}

	// The history ring accumulates >= 2 snapshots on its 5ms cadence.
	deadline := time.Now().Add(5 * time.Second)
	var snapshots int
	for time.Now().Before(deadline) {
		res, err = http.Get(ts.URL + "/v1/metrics/history?last=10")
		if err != nil {
			t.Fatal(err)
		}
		var hr struct {
			Points    int              `json:"points"`
			Snapshots []map[string]any `json:"snapshots"`
		}
		err = json.NewDecoder(res.Body).Decode(&hr)
		res.Body.Close()
		if err != nil {
			t.Fatalf("history decode: %v", err)
		}
		snapshots = hr.Points
		if snapshots >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snapshots < 2 {
		t.Fatalf("history holds %d snapshots, want >= 2", snapshots)
	}

	// /debug/requests retained the errored ingest with its decode span.
	res, err = http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var reqs struct {
		Total    int64
		Errored  int64
		Requests []telemetry.RequestRecord
	}
	err = json.NewDecoder(res.Body).Decode(&reqs)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reqs.Errored != 1 || len(reqs.Requests) == 0 {
		t.Fatalf("debug/requests = %+v, want 1 errored", reqs)
	}
	var errored *telemetry.RequestRecord
	for i := range reqs.Requests {
		if reqs.Requests[i].Status == 400 {
			errored = &reqs.Requests[i]
		}
	}
	if errored == nil || errored.Error == "" {
		t.Fatalf("errored request not retained: %+v", reqs.Requests)
	}
	var sawDecode bool
	for _, sp := range errored.Spans {
		if sp.Name == "decode" {
			sawDecode = true
		}
	}
	if !sawDecode {
		t.Errorf("errored request missing decode span: %+v", errored.Spans)
	}

	// A good ingest carries all three pipeline spans.
	var full *telemetry.RequestRecord
	for i := range reqs.Requests {
		if reqs.Requests[i].Status == 200 && reqs.Requests[i].Endpoint == "/v1/events" {
			full = &reqs.Requests[i]
		}
	}
	if full == nil {
		t.Fatal("successful ingest not retained with traceSlow=0")
	}
	want := map[string]bool{"decode": false, "group-commit": false, "engine-apply": false}
	for _, sp := range full.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("ingest trace missing %s span: %+v", name, full.Spans)
		}
	}
	if full.Items != 5 {
		t.Errorf("ingest trace items = %d, want 5", full.Items)
	}

	// Each read that builds a snapshot carries a snapshot span.
	for _, ep := range snapshotReads {
		var spans []telemetry.SpanRecord
		for _, rec := range reqs.Requests {
			if rec.Endpoint == ep {
				spans = rec.Spans
			}
		}
		if !slices.ContainsFunc(spans, func(sp telemetry.SpanRecord) bool { return sp.Name == "snapshot" }) {
			t.Errorf("%s trace missing snapshot span: %+v", ep, spans)
		}
	}
}

// TestHealthzEnrichment: the liveness probe carries build identity, uptime
// and ingestion counters alongside the engine counters.
func TestHealthzEnrichment(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(testBatch(t)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status         string            `json:"status"`
		Build          map[string]string `json:"build"`
		UptimeSeconds  float64           `json:"uptime_seconds"`
		Events         int64             `json:"events"`
		EventsIngested int64             `json:"events_ingested"`
		Requests       int64             `json:"requests"`
		Watermark      time.Time         `json:"watermark"`
	}
	err = json.NewDecoder(res.Body).Decode(&health)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Events != 5 || health.EventsIngested != 5 {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Build["go"] == "" {
		t.Errorf("healthz build info missing go version: %+v", health.Build)
	}
	if health.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", health.UptimeSeconds)
	}
	if health.Requests < 2 {
		t.Errorf("requests = %d, want >= 2", health.Requests)
	}
	if health.Watermark.IsZero() {
		t.Errorf("watermark missing from healthz")
	}
}

// TestHealthzMatchesSnapshot replays the small study into a 1- and a
// 2-shard router: at quiesce, the counters /healthz reads from
// Router.Totals equal the merged snapshot's.
func TestHealthzMatchesSnapshot(t *testing.T) {
	study := failscope.SmallStudy()
	field, err := failscope.Generate(study.Generator)
	if err != nil {
		t.Fatal(err)
	}
	events := failscope.StreamEventsFromField(field)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := obs.NewObserver("failscoped-healthz-test")
			engines := make([]*stream.Engine, shards)
			for i := range engines {
				cfg := stream.Config{
					Observation:      study.Generator.Observation,
					MonitorEpoch:     study.Generator.MonitorEpoch,
					MonitorRetention: study.Generator.MonitorRetention,
					Observer:         o,
				}
				if shards > 1 {
					cfg.GaugeLabel = fmt.Sprint(i)
				}
				if engines[i], err = stream.NewEngine(cfg); err != nil {
					t.Fatal(err)
				}
			}
			rt, err := shard.New(shard.Options{Engines: engines, Registry: o.Metrics()})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if err := replayEvents(rt, nil, events, 0, make(chan struct{})); err != nil {
				t.Fatal(err)
			}
			srv := newServer(rt, o, serverOptions{})
			t.Cleanup(srv.Close)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var got struct {
				Seq       int64     `json:"seq"`
				Events    int64     `json:"events"`
				Tickets   int64     `json:"tickets"`
				Machines  int       `json:"machines"`
				Watermark time.Time `json:"watermark"`
			}
			if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			snap := rt.Snapshot()
			if got.Seq != snap.Seq || got.Events != snap.Events || got.Tickets != snap.Tickets ||
				got.Machines != snap.Machines || !got.Watermark.Equal(snap.Watermark) {
				t.Errorf("/healthz = %+v, snapshot has seq %d, events %d, tickets %d, machines %d, watermark %v",
					got, snap.Seq, snap.Events, snap.Tickets, snap.Machines, snap.Watermark)
			}
			if h := rec.Header().Get("X-Failscope-Seq"); h != fmt.Sprint(snap.Seq) {
				t.Errorf("X-Failscope-Seq = %q, want %d", h, snap.Seq)
			}
			if snap.Seq != int64(len(events)) {
				t.Errorf("replay reached seq %d, want %d", snap.Seq, len(events))
			}
		})
	}
}

// TestAlertsEndpointAndSeq: a crash burst raises an alert served at
// /v1/alerts, the snapshot-sequence header rides on every read endpoint
// with the same monotonic value, and a detector-less daemon 404s.
func TestAlertsEndpointAndSeq(t *testing.T) {
	det := detect.New(detect.Config{})
	eng, err := stream.NewEngine(stream.Config{Observation: testWindow, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(shard.Single(eng), obs.NewObserver("failscoped-test"), serverOptions{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One machine, four crash tickets a week apart: inside the 30-day
	// recurrence window, so the fourth raises an alert.
	events := []stream.Event{
		{Type: "machine", Machine: &model.Machine{ID: "pm-burst", Kind: model.PM, System: model.SysI}},
	}
	at := testWindow.Start.Add(30 * 24 * time.Hour)
	for i := 0; i < 4; i++ {
		opened := at.Add(time.Duration(i) * 7 * 24 * time.Hour)
		events = append(events, stream.Event{Type: "ticket", Ticket: &model.Ticket{
			ID: fmt.Sprintf("t%d", i), ServerID: "pm-burst", System: model.SysI,
			Opened: opened, Closed: opened.Add(2 * time.Hour),
			IsCrash: true, Class: model.ClassSoftware,
		}})
	}
	var sb strings.Builder
	if err := stream.EncodeJSONL(&sb, events); err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", res.StatusCode)
	}

	res, err = http.Get(ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Get("X-Failscope-Seq") != "5" {
		t.Errorf("alerts X-Failscope-Seq = %q, want 5", res.Header.Get("X-Failscope-Seq"))
	}
	var alerts struct {
		Seq       int64           `json:"seq"`
		Detection detect.Snapshot `json:"detection"`
	}
	err = json.NewDecoder(res.Body).Decode(&alerts)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if alerts.Seq != 5 {
		t.Errorf("alerts body seq = %d, want 5", alerts.Seq)
	}
	if alerts.Detection.Raised != 1 || alerts.Detection.ActiveCount != 1 {
		t.Fatalf("detection snapshot = %+v", alerts.Detection)
	}
	a := alerts.Detection.Active[0]
	if a.Machine != "pm-burst" || a.Source != detect.SourceRecurrence || a.Crashes != 4 {
		t.Errorf("alert = %+v", a)
	}

	// The same sequence value correlates the other read surfaces.
	for _, path := range []string{"/healthz", "/v1/report", "/metrics"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if got := res.Header.Get("X-Failscope-Seq"); got != "5" {
			t.Errorf("%s X-Failscope-Seq = %q, want 5", path, got)
		}
	}

	// Detector-less daemon: /v1/alerts is a 404, not an empty snapshot.
	plain, _ := testServer(t)
	ts2 := httptest.NewServer(plain)
	defer ts2.Close()
	res, err = http.Get(ts2.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("alerts without a detector: status %d, want 404", res.StatusCode)
	}
}

// TestDurableServerSurface runs the server in durable mode: ingest lands
// in the WAL as the body was posted, refused bodies (400 and 413, the
// chunked one cut mid-read) land nothing, /healthz grows a durable
// section carrying the recovery info,
// /metrics exposes the durable_* families plus the wire decoder counters,
// and a second store+engine recovered from the same directory serves an
// identical /v1/report.
func TestDurableServerSurface(t *testing.T) {
	dir := t.TempDir()
	o := obs.NewObserver("failscoped-durable-test")
	eng, err := stream.NewEngine(stream.Config{Observation: testWindow, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(dir, durable.Options{Registry: o.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(store)
	srv := newServer(shard.Single(eng), o, serverOptions{store: store, recovery: &info})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body io.Reader, want int) {
		t.Helper()
		res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != want {
			t.Fatalf("ingest status %d, want %d", res.StatusCode, want)
		}
	}
	post(strings.NewReader("{\"type\":\"advance\"}\nnot json\n"), http.StatusBadRequest)
	post(io.MultiReader(bytes.NewReader(oversizedBatch())), http.StatusRequestEntityTooLarge)
	body := strings.ReplaceAll(testBatch(t), "\n", "\r\n")
	post(strings.NewReader(body), http.StatusOK)

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Durable struct {
			Enabled       bool  `json:"enabled"`
			CheckpointSeq int64 `json:"checkpoint_seq"`
			Recovery      struct {
				Seq             int64 `json:"seq"`
				ReplayedRecords int64 `json:"replayedRecords"`
			} `json:"recovery"`
		} `json:"durable"`
	}
	err = json.NewDecoder(res.Body).Decode(&health)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !health.Durable.Enabled {
		t.Fatalf("healthz durable section = %+v, want enabled", health.Durable)
	}

	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseMetrics(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/metrics not conformant in durable mode: %v", err)
	}
	// The magic, then one record: a 20-byte header and the body as posted.
	if v, want := fams.Value("durable_wal_bytes"), float64(8+20+len(body)); v != want {
		t.Errorf("durable_wal_bytes = %v, want %v", v, want)
	}
	if v := fams.Value("durable_wal_records"); v != 1 {
		t.Errorf("durable_wal_records = %v, want 1", v)
	}
	if v := fams.Value("durable_segments_live"); v != 1 {
		t.Errorf("durable_segments_live = %v, want 1", v)
	}
	// Satellite: the JSONL decoder's fast/fallback split is published on
	// every scrape. The ingest above decoded 5 lines somewhere between the
	// two paths.
	fast, fallback := fams.Value("wire_decode_fast_total"), fams.Value("wire_decode_fallback_total")
	if math.IsNaN(fast) || math.IsNaN(fallback) {
		t.Fatalf("wire decode counters missing: fast=%v fallback=%v", fast, fallback)
	}

	// Restart: recover a fresh engine from the same directory and compare
	// the report surface byte for byte.
	report := func(u string) []byte {
		res, err := http.Get(u + "/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := report(ts.URL)

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	eng2, err := stream.NewEngine(stream.Config{Observation: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	info2, err := store2.Recover(eng2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq != 5 || info2.ReplayedEvents != 5 {
		t.Fatalf("recovery info = %+v, want seq 5 / 5 events replayed", info2)
	}
	srv2 := newServer(shard.Single(eng2), obs.NewObserver("failscoped-durable-test2"), serverOptions{store: store2, recovery: &info2})
	t.Cleanup(srv2.Close)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if after := report(ts2.URL); string(after) != string(before) {
		t.Fatalf("recovered /v1/report differs from pre-crash report:\nbefore: %.300s\nafter:  %.300s", before, after)
	}
	if info.Seq != 0 || info.ReplayedRecords != 0 {
		t.Errorf("first boot on empty dir recovered %+v, want zeros", info)
	}
}

// TestConcurrentPostsRecoverLiveAlerts posts the small study from several
// clients at once, so commit groups hold more than one batch, then drops
// the durable store without a drain or checkpoint (a crash) and recovers a
// fresh engine and detector from the directory. Recovery applies one WAL
// record at a time, so the recovered /v1/alerts and /v1/report equal the
// live ones byte for byte only if detection does not depend on how the
// batches were grouped.
func TestConcurrentPostsRecoverLiveAlerts(t *testing.T) {
	study := failscope.SmallStudy()
	field, err := failscope.Generate(study.Generator)
	if err != nil {
		t.Fatal(err)
	}
	// Twenty machines crash every 4 to 8 days all year. With a 3-day
	// horizon each alert they raise expires before their next crash, so
	// expiries interleave with raises all through the stream.
	for m := 0; m < 20; m++ {
		id := model.MachineID(fmt.Sprintf("pm-burst-%02d", m))
		field.Data.Machines = append(field.Data.Machines, &model.Machine{ID: id, Kind: model.PM, System: model.SysI})
		gap := time.Duration(4+m%5) * 24 * time.Hour
		for at := study.Generator.Observation.Start.Add(time.Duration(m) * time.Hour); at.Before(study.Generator.Observation.End); at = at.Add(gap) {
			field.Tickets.Append(model.Ticket{
				ServerID: id, System: model.SysI, Opened: at, Closed: at.Add(time.Hour),
				IsCrash: true, Class: model.ClassSoftware,
			})
		}
	}
	events := stream.EventsFromField(field.Data, field.Tickets, field.Monitor)
	var bodies [][]byte
	for lo := 0; lo < len(events); lo += replayBatch {
		var buf bytes.Buffer
		if err := stream.EncodeJSONL(&buf, events[lo:min(lo+replayBatch, len(events))]); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}

	dir := t.TempDir()
	// boot recovers an engine with a detector of its own from dir and
	// serves it, journaled to the directory's store.
	boot := func(o *obs.Observer) *httptest.Server {
		t.Helper()
		eng, err := stream.NewEngine(stream.Config{
			Observation:      study.Generator.Observation,
			FineWindow:       study.Generator.FineWindow,
			MonitorEpoch:     study.Generator.MonitorEpoch,
			MonitorRetention: study.Generator.MonitorRetention,
			Observer:         o,
			Detector:         failscope.NewDetector(failscope.DetectorConfig{Horizon: 3 * 24 * time.Hour}),
		})
		if err != nil {
			t.Fatal(err)
		}
		store, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		info, err := store.Recover(eng)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetJournal(store)
		srv := newServer(shard.Single(eng), o, serverOptions{store: store, recovery: &info})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}
	get := func(ts *httptest.Server, path string) []byte {
		t.Helper()
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, res.StatusCode, b)
		}
		return b
	}

	o := obs.NewObserver("failscoped-crash-test")
	live := boot(o)
	const posters = 4
	var next atomic.Int64
	errs := make(chan error, posters)
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(bodies)); i = next.Add(1) - 1 {
				res, err := http.Post(live.URL+"/v1/events", "application/jsonl", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch %d: status %d", i, res.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := o.Metrics().Snapshot()
	if m["stream.apply_grouped_batches"] <= m["stream.apply_groups"] {
		t.Fatalf("no commit group held more than one batch (%v batches in %v groups)",
			m["stream.apply_grouped_batches"], m["stream.apply_groups"])
	}
	liveAlerts, liveReport := get(live, "/v1/alerts"), get(live, "/v1/report")
	var alerts struct {
		Detection detect.Snapshot `json:"detection"`
	}
	if err := json.Unmarshal(liveAlerts, &alerts); err != nil {
		t.Fatal(err)
	}
	if alerts.Detection.Raised == 0 || alerts.Detection.Expired == 0 {
		t.Fatalf("live detection raised %d and expired %d alerts, want both > 0",
			alerts.Detection.Raised, alerts.Detection.Expired)
	}

	// The crash: the live store is neither drained nor checkpointed nor
	// closed; a second store opens the same directory.
	recovered := boot(obs.NewObserver("failscoped-crash-test-recovered"))
	if got := get(recovered, "/v1/alerts"); !bytes.Equal(got, liveAlerts) {
		t.Errorf("recovered /v1/alerts differs from the live one:\nlive:      %.400s\nrecovered: %.400s", liveAlerts, got)
	}
	if got := get(recovered, "/v1/report"); !bytes.Equal(got, liveReport) {
		t.Errorf("recovered /v1/report differs from the live one:\nlive:      %.400s\nrecovered: %.400s", liveReport, got)
	}
}
