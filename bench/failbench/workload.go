package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"failscope"
	"failscope/internal/telemetry"
)

// scale is the study every workload generates its inputs from. The paper
// scale is not used: on a shared 2-CPU host its 2.17M-event replay varied
// twice as much run to run as the small one (bench/README.md).
const scale = "small"

// workload is one traffic mix. Every daemon pass replays the whole study
// stream, in order, into a fresh failscoped.
type workload struct {
	name    string
	shards  int  // failscoped -shards (0: no daemon)
	durable bool // -data-dir; after each pass SIGKILL and recover twice
	reads   bool // open-loop reads alongside ingest
	study   bool // no daemon: dcgen writes dumps, failanalyze analyses them
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why each
// was chosen.
var workloads = []workload{
	{name: "replay-mem", shards: 1},
	{name: "replay-durable", shards: 1, durable: true},
	{name: "mixed-sharded", shards: 2, reads: true},
	{name: "study", study: true},
}

const (
	// readInterval paces mixed-sharded's open-loop reads: 100 per second.
	readInterval = 10 * time.Millisecond
	// readLimitMS is the read latency limit; reads over it are counted.
	readLimitMS = 50
	// recoveries is how many times replay-durable kills and restarts the
	// daemon after each pass.
	recoveries = 2
	// dcgenRuns is how many times the study workload generates its dumps,
	// so its set-up time is a median.
	dcgenRuns = 3
)

// readMix is mixed-sharded's read traffic: endpoint and cumulative share.
var readMix = []struct {
	path string
	upTo float64
}{
	{"/v1/report", 0.4},
	{"/v1/alerts", 0.6},
	{"/v1/rates", 0.8},
	{"/v1/fidelity", 0.9},
	{"/metrics", 1},
}

// pass is what one replay of the stream measured.
type pass struct {
	probeMS float64   // host probe just before the pass
	setupS  []float64 // timed daemon starts: the fresh one, or the recoveries
	driveS  float64   // first POST sent → last one acknowledged
	events  int       // acknowledged
	postMS  []float64 // per POST /v1/events
	readMS  []float64 // per read, from its due time
	lateMS  []float64 // per read, due time → sent
	over    int       // reads over readLimitMS or failed
	rssMiB  float64   // the ingesting daemon's peak
}

// daemonRun accumulates the passes of one daemon workload run.
type daemonRun struct {
	cfg     *config
	w       workload
	batches [][]byte
	events  int // events in the stream; /healthz seq after a pass
	ref     reference
	scrape  bool // read the server-side ingest p50 from /metrics after each pass

	ingest, read *http.Client
	probe        *probe
	ops          ops

	passes    []*pass
	lastProbe float64   // host probe after the last pass
	serverP50 []float64 // ms
}

// runDaemonWorkload generates the stream and the expected read bodies,
// then replays the stream pass after pass until the budget is spent.
func runDaemonWorkload(cfg *config, w workload, st failscope.Study) (*result, error) {
	field, err := failscope.Generate(st.Generator)
	if err != nil {
		return nil, err
	}
	in, err := genStream(field)
	if err != nil {
		return nil, err
	}
	r := &daemonRun{cfg: cfg, w: w, batches: in.batches, events: len(in.events),
		ingest: httpClient(), read: httpClient(), probe: cfg.probe}
	if r.ref, err = buildReference(st, in.events, w.shards); err != nil {
		return nil, err
	}
	if w.shards > 1 {
		// The sharded daemon must serve what one engine computes, up to the
		// fields merging legitimately changes.
		single, err := buildReference(st, in.events, 1)
		if err != nil {
			return nil, err
		}
		r.ops.record(sameNormalized(r.ref.report, single.report))
	}
	if cfg.tamper != nil {
		cfg.tamper(&r.ref)
	}
	if r.ops.failed == 0 {
		r.measure()
	}
	return r.result(), nil
}

func (r *daemonRun) measure() {
	runtime.GC() // the generated stream is garbage now; keep its GC out of the clock
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	defer func() { r.lastProbe = r.probe.ms() }()
	for b := newBudget(r.cfg.seconds); b.next(); {
		p := &pass{probeMS: r.probe.ms()}
		r.passes = append(r.passes, p)
		if err := r.pass(p); err != nil {
			return
		}
	}
}

func sameNormalized(got, want []byte) error {
	g, err := normalizeReport(got)
	if err != nil {
		return err
	}
	w, err := normalizeReport(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("sharded /v1/report differs from the single engine's beyond the shard-variant fields")
	}
	return nil
}

// pass boots a fresh daemon, replays the stream and checks what it serves.
// Durable passes then kill the daemon and time each recovery.
func (r *daemonRun) pass(p *pass) error {
	args := []string{"-scale", scale, "-shards", strconv.Itoa(r.w.shards)}
	if r.w.durable {
		dir := filepath.Join(r.cfg.work, fmt.Sprintf("data-%s-%d", r.w.name, len(r.passes)))
		defer os.RemoveAll(dir)
		args = append(args, "-data-dir", dir)
	}
	defer r.ingest.CloseIdleConnections()
	defer r.read.CloseIdleConnections()

	d, err := startDaemon(r.cfg.bin("failscoped"), r.read, args...)
	if !r.ops.record(err) {
		return err
	}
	defer d.kill()
	if !r.w.durable {
		p.setupS = append(p.setupS, d.ready.Seconds())
	}
	if err := r.drive(d, p); err != nil {
		return err
	}
	if err := r.verify(d); err != nil {
		return err
	}
	if r.scrape {
		if err := r.scrapeServerP50(d); err != nil {
			return err
		}
	}
	_, p.rssMiB = d.kill()

	for i := 0; r.w.durable && i < recoveries; i++ {
		d, err := startDaemon(r.cfg.bin("failscoped"), r.read, args...)
		if !r.ops.record(err) {
			return err
		}
		// The killed daemon served the reference, so a recovered one must
		// too, byte for byte.
		err = r.verify(d)
		d.kill()
		if err != nil {
			return err
		}
		p.setupS = append(p.setupS, d.ready.Seconds())
	}
	return nil
}

// drive posts every batch in order on the ingest connection, closed-loop:
// a collector sends its next batch once the 2xx says the last one is
// applied. Mixed passes read on the second connection meanwhile.
func (r *daemonRun) drive(d *daemon, p *pass) error {
	url := d.base + "/v1/events"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rd reads
	t0 := time.Now()
	if r.w.reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd = readLoop(r.read, d.base, newOpenLoop(t0, readInterval),
				failscope.NewRNG(r.cfg.seed^uint64(len(r.passes))<<32), stop)
		}()
	}
	var err error
	for _, b := range r.batches {
		s := time.Now()
		n, perr := post(r.ingest, url, b)
		p.postMS = append(p.postMS, ms(time.Since(s)))
		if !r.ops.record(perr) {
			err = perr
			break
		}
		p.events += n
	}
	p.driveS = time.Since(t0).Seconds()
	close(stop)
	wg.Wait()

	if r.w.reads {
		p.readMS, p.lateMS, p.over = rd.loop.latency, rd.loop.lateness, rd.overLimit
		r.ops.add(rd.ops)
		if err == nil {
			err = rd.ops.firstErr
		}
	}
	if err != nil {
		return err
	}
	if p.events != r.events {
		err = fmt.Errorf("daemon acknowledged %d of %d events", p.events, r.events)
		r.ops.record(err)
	}
	return err
}

// reads is what one pass's open-loop reader saw.
type reads struct {
	loop      *openLoop
	ops       ops
	overLimit int
}

// readLoop sends reads on schedule until stop closes. Each read is due at
// its slot whether or not the previous one has returned, so it is sent
// late rather than skipped when the daemon stalls.
func readLoop(c *http.Client, base string, loop *openLoop, rng *failscope.RNG, stop <-chan struct{}) reads {
	rd := reads{loop: loop}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		if wait := time.Until(loop.due(i)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return rd
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return rd
			default:
			}
		}
		u := rng.Float64()
		path := readMix[len(readMix)-1].path
		for _, m := range readMix {
			if u < m.upTo {
				path = m.path
				break
			}
		}
		sent := time.Now()
		body, err := get(c, base+path)
		if err == nil {
			err = checkRead(path, body)
		}
		loop.record(i, sent, time.Now())
		if !rd.ops.record(err) || loop.latency[len(loop.latency)-1] > readLimitMS {
			rd.overLimit++
		}
	}
}

// checkRead validates a mid-stream read: the state is moving, so the body
// can only be checked for shape.
func checkRead(path string, body []byte) error {
	if path == "/metrics" {
		_, err := telemetry.ParseMetrics(bytes.NewReader(body))
		return err
	}
	if !json.Valid(body) {
		return fmt.Errorf("GET %s: invalid JSON", path)
	}
	return nil
}

// verify checks the read surface of a quiescent daemon against the
// in-process reference: /healthz seq, then /v1/report, /v1/fidelity and
// /v1/alerts byte for byte.
func (r *daemonRun) verify(d *daemon) error {
	body, err := get(r.read, d.base+"/healthz")
	if err == nil {
		var h struct {
			Seq int64 `json:"seq"`
		}
		if err = json.Unmarshal(body, &h); err == nil && h.Seq != int64(r.events) {
			err = fmt.Errorf("/healthz seq %d, want %d", h.Seq, r.events)
		}
	}
	if !r.ops.record(err) {
		return err
	}
	for _, c := range []struct {
		path string
		want []byte
	}{
		{"/v1/report", r.ref.report},
		{"/v1/fidelity", r.ref.fidelity},
		{"/v1/alerts", r.ref.alerts},
	} {
		body, err := get(r.read, d.base+c.path)
		if err == nil && !bytes.Equal(body, c.want) {
			err = fmt.Errorf("GET %s differs from the in-process reference", c.path)
		}
		if !r.ops.record(err) {
			return err
		}
	}
	return nil
}

// scrapeServerP50 reads the daemon's own p50 for POST /v1/events from one
// /metrics scrape, taken after the pass and outside the timed window.
func (r *daemonRun) scrapeServerP50(d *daemon) error {
	body, err := get(r.read, d.base+"/metrics")
	var fams telemetry.Families
	if err == nil {
		fams, err = telemetry.ParseMetrics(bytes.NewReader(body))
	}
	if !r.ops.record(err) {
		return err
	}
	r.serverP50 = append(r.serverP50, fams.Value("http_request_ms_p50", "endpoint", "/v1/events"))
	return nil
}

func (r *daemonRun) result() *result {
	probes := []float64{}
	for _, p := range r.passes {
		probes = append(probes, p.probeMS)
	}
	f := factors(append(probes, r.lastProbe))
	var setup, tput, rawTput, post, read, late, rss []float64
	over, reads := 0, 0
	for i, p := range r.passes {
		rawTput = append(rawTput, ratio(float64(p.events), p.driveS))
		tput = append(tput, ratio(float64(p.events), p.driveS)/f[i])
		setup = append(setup, scaled(p.setupS, f[i])...)
		post = append(post, scaled(p.postMS, f[i])...)
		read = append(read, scaled(p.readMS, f[i])...)
		late = append(late, p.lateMS...)
		rss = append(rss, p.rssMiB)
		over += p.over
		reads += len(p.readMS)
	}
	lat := post
	if r.w.reads {
		lat = read
	}
	pct, tailMS := tail(lat)

	res := newResult(r.cfg, r.w, r.ops)
	res.Metrics = []metric{
		{"setup_s", median(setup), "s"},
		{"throughput_per_s", median(tput), "1/s"},
		{"latency_p50_ms", median(lat), "ms"},
		{"latency_tail_ms", tailMS, "ms"},
		{"peak_rss_mb", median(rss), "MiB"},
	}
	res.Info = []metric{
		{"passes", float64(len(r.passes)), "count"},
		{"host_probe_ms", median(probes), "ms"},
		{"raw_throughput_per_s", median(rawTput), "1/s"},
		{"latency_samples", float64(len(lat)), "count"},
		{"latency_tail_percentile", 100 * pct, "percentile"},
	}
	if p99, ok := percentile(lat, 0.99); ok {
		res.Info = append(res.Info, metric{"latency_p99_ms", p99, "ms"})
	}
	if r.w.reads {
		lp, lt := tail(late)
		res.Info = append(res.Info,
			metric{"ingest_p50_ms", median(post), "ms"},
			metric{"read_lateness_p50_ms", median(late), "ms"},
			metric{"read_lateness_" + percentLabel(lp) + "_ms", lt, "ms"},
			metric{"reads", float64(reads), "count"},
			metric{fmt.Sprintf("reads_over_%dms", readLimitMS), float64(over), "count"},
		)
	}
	return res
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runStudy times the paper's own use: dcgen writes ticket and monitoring
// dumps, then failanalyze analyses them cold, again and again. Every
// analysis must print exactly what the generated-study path prints.
func runStudy(cfg *config, w workload) (*result, error) {
	var o ops
	dir := filepath.Join(cfg.work, "study")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tickets, monitor := filepath.Join(dir, "tickets.jsonl"), filepath.Join(dir, "monitor.jsonl")
	seed := strconv.FormatUint(cfg.seed, 10)

	want, _, _, err := runProgram(cfg.bin("failanalyze"), "-scale", scale, "-seed", seed, "-classify")
	if !o.record(err) {
		return newResult(cfg, w, o), nil
	}

	// A probe before every program run and one after the last: each run's
	// time is scaled by the probes around it.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var probes, setupS, runMS, rss []float64
	timed := func(bin string, args ...string) (out []byte, wall time.Duration, peak float64, err error) {
		probes = append(probes, cfg.probe.ms())
		return runProgram(bin, args...)
	}
	for i := 0; i < dcgenRuns; i++ {
		_, wall, _, err := timed(cfg.bin("dcgen"), "-scale", scale, "-seed", seed, "-o", tickets, "-monitor", monitor)
		if !o.record(err) {
			return newResult(cfg, w, o), nil
		}
		setupS = append(setupS, wall.Seconds())
	}
	records, err := countLines(tickets, monitor)
	if err != nil {
		return nil, err
	}
	for b := newBudget(cfg.seconds); b.next(); {
		out, wall, peak, err := timed(cfg.bin("failanalyze"), "-scale", scale,
			"-input", tickets, "-monitor", monitor, "-classify", "-parallelism", "2")
		if err == nil && !bytes.Equal(out, want) {
			err = fmt.Errorf("failanalyze -input prints something else than the generated study")
		}
		if !o.record(err) {
			break
		}
		runMS = append(runMS, ms(wall))
		rss = append(rss, peak)
	}
	f := factors(append(probes, cfg.probe.ms()))

	var tput []float64
	for i := range setupS {
		setupS[i] *= f[i]
	}
	for i := range runMS {
		runMS[i] *= f[dcgenRuns+i]
		tput = append(tput, float64(records)/(runMS[i]/1000))
	}
	pct, tailMS := tail(runMS)
	res := newResult(cfg, w, o)
	res.Metrics = []metric{
		{"setup_s", median(setupS), "s"},
		{"throughput_per_s", median(tput), "1/s"},
		{"latency_p50_ms", median(runMS), "ms"},
		{"latency_tail_ms", tailMS, "ms"},
		{"peak_rss_mb", median(rss), "MiB"},
	}
	res.Info = []metric{
		{"passes", float64(len(runMS)), "count"},
		{"host_probe_ms", median(probes), "ms"},
		{"latency_samples", float64(len(runMS)), "count"},
		{"latency_tail_percentile", 100 * pct, "percentile"},
		{"records", float64(records), "count"},
	}
	return res, nil
}

// countLines counts the records of JSONL files.
func countLines(paths ...string) (int, error) {
	n := 0
	buf := make([]byte, 1<<20)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		for {
			k, err := f.Read(buf)
			n += bytes.Count(buf[:k], []byte{'\n'})
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return 0, err
			}
		}
		f.Close()
	}
	return n, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
