package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"failscope/internal/detect"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
	"failscope/internal/telemetry"
)

// postBatch encodes one poster's batch: a machine of its own, a usage
// sample and a crash ticket on it.
func postBatch(t *testing.T, poster, batch int) string {
	t.Helper()
	id := model.MachineID(fmt.Sprintf("m-%d-%d", poster, batch))
	at := testWindow.Start.Add(time.Duration(batch+1) * 24 * time.Hour)
	events := []stream.Event{
		{Type: "machine", Machine: &model.Machine{ID: id, Kind: model.PM, System: model.SysI}},
		{Type: "sample", ServerID: id, Metric: monitordb.MetricCPUUtil, Time: &at, Value: 0.5},
		{Type: "ticket", Ticket: &model.Ticket{
			ID: string(id), ServerID: id, System: model.SysI, Opened: at,
			Closed: at.Add(time.Hour), IsCrash: true, Class: model.ClassSoftware,
		}},
	}
	var sb strings.Builder
	if err := stream.EncodeJSONL(&sb, events); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// scrapeMetrics GETs /metrics and returns the parsed families and the
// response's X-Failscope-Seq.
func scrapeMetrics(url string) (telemetry.Families, int64, error) {
	res, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer res.Body.Close()
	seq, err := strconv.ParseInt(res.Header.Get("X-Failscope-Seq"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("X-Failscope-Seq: %w", err)
	}
	fams, err := telemetry.ParseMetrics(res.Body)
	return fams, seq, err
}

// TestMetricsScrapeDuringIngest scrapes /metrics while posters ingest.
// Gauges are published by the scrape itself, so every scrape's
// stream_events must equal its X-Failscope-Seq and never run backwards;
// once ingest stops, the sample count, detector and pool families must
// match the engine. Run under -race it also checks the collectors against
// the group-commit path.
func TestMetricsScrapeDuringIngest(t *testing.T) {
	o := obs.NewObserver("failscoped-scrape-test")
	det := detect.New(detect.Config{})
	eng, err := stream.NewEngine(stream.Config{
		Observation:      testWindow,
		MonitorEpoch:     testWindow.Start,
		MonitorRetention: 30 * 24 * time.Hour,
		Observer:         o,
		Detector:         det,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(shard.Single(eng), o, serverOptions{historyInterval: time.Millisecond})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const posters, batches = 3, 40
	bodies := make([][]string, posters)
	for p := range bodies {
		for b := 0; b < batches; b++ {
			bodies[p] = append(bodies[p], postBatch(t, p, b))
		}
	}
	errs := make(chan error, posters+2)
	var ingest sync.WaitGroup
	for p := 0; p < posters; p++ {
		ingest.Add(1)
		go func(p int) {
			defer ingest.Done()
			for _, body := range bodies[p] {
				res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST status %d", res.StatusCode)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			last := -1.0
			for {
				select {
				case <-done:
					return
				default:
				}
				fams, seq, err := scrapeMetrics(ts.URL)
				if err != nil {
					errs <- err
					return
				}
				got := fams.Value("stream_events")
				if got != float64(seq) {
					errs <- fmt.Errorf("scrape: stream_events %v, X-Failscope-Seq %d", got, seq)
					return
				}
				if got < last {
					errs <- fmt.Errorf("scrape: stream_events went back from %v to %v", last, got)
					return
				}
				last = got
			}
		}()
	}
	ingest.Wait()
	close(done)
	scrapers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fams, seq, err := scrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const want = posters * batches * 3
	if seq != want || fams.Value("stream_events") != want {
		t.Errorf("quiesced scrape: X-Failscope-Seq %d, stream_events %v, want %d", seq, fams.Value("stream_events"), want)
	}
	if got := fams.Value("stream_monitor_samples"); got != posters*batches {
		t.Errorf("stream_monitor_samples = %v, want %d (one sample per batch)", got, posters*batches)
	}
	dt := det.Totals()
	if got := fams.Value("detect_machines"); got != float64(dt.Machines) {
		t.Errorf("detect_machines = %v, want %d", got, dt.Machines)
	}
	if got := fams.Value("wire_decode_fast_total"); !(got > 0) {
		t.Errorf("wire_decode_fast_total = %v, want > 0", got)
	}
	if got := fams.Value("mempool_stream_applyreq_hits"); !(got >= 0) {
		t.Errorf("mempool_stream_applyreq_hits missing from /metrics")
	}
}
