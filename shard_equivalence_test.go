package failscope

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"failscope/internal/core"
	"failscope/internal/detect"
	"failscope/internal/shard"
	"failscope/internal/stream"
	"failscope/internal/xrand"
)

// shardFixture is the shared small-study replay input: the event stream
// (closed by an advance at the observation end, so every shard's detector
// reaches the same expiry horizon) and the batch-analysis reference
// report. Generated once per test binary — the equivalence suite replays
// it many times.
type shardFixture struct {
	events []StreamEvent
	batch  *AnalysisReport
}

var (
	shardFixtureOnce sync.Once
	shardFixtureVal  *shardFixture
	shardFixtureErr  error
)

func smallShardFixture(t *testing.T) *shardFixture {
	t.Helper()
	shardFixtureOnce.Do(func() {
		study := SmallStudy()
		field, err := Generate(study.Generator)
		if err != nil {
			shardFixtureErr = err
			return
		}
		col, err := Collect(field, func() CollectOptions {
			o := DefaultCollectOptions(study.Generator.Observation, study.Generator.FineWindow)
			o.SkipClassification = true
			return o
		}())
		if err != nil {
			shardFixtureErr = err
			return
		}
		batch, err := Analyze(AnalysisInput{Data: col.Data, Attrs: col.Attrs})
		if err != nil {
			shardFixtureErr = err
			return
		}
		events := StreamEventsFromField(field)
		end := study.Generator.Observation.End
		events = append(events, StreamEvent{Type: "advance", Time: &end})
		shardFixtureVal = &shardFixture{events: events, batch: batch}
	})
	if shardFixtureErr != nil {
		t.Fatal(shardFixtureErr)
	}
	return shardFixtureVal
}

// newStudyRouter builds an n-shard router over small-study engines, each
// with its own detector, closed when the test ends.
func newStudyRouter(t *testing.T, n int) *shard.Router {
	t.Helper()
	study := SmallStudy()
	engines := make([]*stream.Engine, n)
	detectors := make([]*detect.Detector, n)
	for i := range engines {
		cfg := StreamConfig{Observation: study.Generator.Observation}
		if n > 1 {
			cfg.GaugeLabel = string(rune('0' + i%10))
		}
		detectors[i] = NewDetector(DetectorConfig{})
		cfg.Detector = detectors[i]
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	rt, err := shard.New(shard.Options{Engines: engines, Detectors: detectors})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// replaySharded replays the fixture events through an n-shard router in
// the given chunk order and returns the merged engine and detection
// snapshots. nil chunks means one pass in order.
func replaySharded(t *testing.T, events []StreamEvent, n int, chunks [][]StreamEvent) (*stream.Snapshot, *detect.Snapshot) {
	t.Helper()
	rt := newStudyRouter(t, n)
	if chunks == nil {
		chunks = [][]StreamEvent{events}
	}
	for _, c := range chunks {
		if err := rt.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	return rt.Snapshot(), rt.Alerts()
}

// unevenChunks splits events into deliberately lopsided batches: a tiny
// head, a huge middle, alternating small/large remainders — the shapes a
// real ingest tier produces, not tidy equal slices.
func unevenChunks(events []StreamEvent) [][]StreamEvent {
	sizes := []int{1, 7, len(events) / 2, 93, 11}
	var chunks [][]StreamEvent
	lo := 0
	for i := 0; lo < len(events); i++ {
		size := sizes[i%len(sizes)]
		hi := lo + size
		if hi > len(events) {
			hi = len(events)
		}
		chunks = append(chunks, events[lo:hi])
		lo = hi
	}
	return chunks
}

func relClose(t *testing.T, name string, got, want, rel float64) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Errorf("%s = %g, want NaN", name, got)
		}
		return
	}
	tol := rel * math.Abs(want)
	if tol == 0 {
		tol = rel
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

// checkSummaryTolerance compares a sketch-backed stats summary: exact
// count and extremes, 1e-9 moments, 5% quantiles — the same contract the
// engine-vs-batch convergence suite uses, now across a shard merge.
func checkSummaryTolerance(t *testing.T, name string, gotN, wantN int, gm, wm, gs, ws, gmed, wmed float64) {
	t.Helper()
	if gotN != wantN {
		t.Errorf("%s N = %d, want %d", name, gotN, wantN)
	}
	relClose(t, name+" mean", gm, wm, 1e-9)
	relClose(t, name+" stddev", gs, ws, 1e-9)
	relClose(t, name+" median", gmed, wmed, 0.05)
}

func checkInterFailureMerged(t *testing.T, name string, got, want core.InterFailureResult) {
	t.Helper()
	if got.Kind != want.Kind || got.FailingServers != want.FailingServers ||
		got.SingleFailureServers != want.SingleFailureServers {
		t.Errorf("%s counters diverged: got %+v, want %+v", name, got, want)
	}
	checkSummaryTolerance(t, name, got.Summary.N, want.Summary.N,
		got.Summary.Mean, want.Summary.Mean, got.Summary.StdDev, want.Summary.StdDev,
		got.Summary.Median, want.Summary.Median)
	relClose(t, name+" min", got.Summary.Min, want.Summary.Min, 0)
	relClose(t, name+" max", got.Summary.Max, want.Summary.Max, 0)
}

func checkRepairMerged(t *testing.T, name string, got, want core.RepairResult) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Errorf("%s kind = %v, want %v", name, got.Kind, want.Kind)
	}
	relClose(t, name+" reboot share", got.RebootShare, want.RebootShare, 0)
	checkSummaryTolerance(t, name, got.Summary.N, want.Summary.N,
		got.Summary.Mean, want.Summary.Mean, got.Summary.StdDev, want.Summary.StdDev,
		got.Summary.Median, want.Summary.Median)
	relClose(t, name+" min", got.Summary.Min, want.Summary.Min, 0)
	relClose(t, name+" max", got.Summary.Max, want.Summary.Max, 0)
}

// checkCountSections requires every count-derived report section to match
// exactly (reflect.DeepEqual): the merge sums raw integer accumulators and
// reassembles through the same snapshot code, so even the derived floats
// must be bit-identical. Spatial's max-incident class is excluded — ties
// between equal-sized incidents resolve by arrival order, which shard
// interleaving legitimately changes.
func checkCountSections(t *testing.T, label string, got, want *core.Report) {
	t.Helper()
	sections := []struct {
		name string
		g, w any
	}{
		{"DatasetStats", got.DatasetStats, want.DatasetStats},
		{"ClassDistribution", got.ClassDistribution, want.ClassDistribution},
		{"WeeklyRates", got.WeeklyRates, want.WeeklyRates},
		{"RecurrencePM", got.RecurrencePM, want.RecurrencePM},
		{"RecurrenceVM", got.RecurrenceVM, want.RecurrenceVM},
		{"RandomRecurrent", got.RandomRecurrent, want.RandomRecurrent},
		{"SpatialClass", got.SpatialClass, want.SpatialClass},
	}
	for _, s := range sections {
		if !reflect.DeepEqual(s.g, s.w) {
			t.Errorf("%s: %s diverged:\n got %+v\nwant %+v", label, s.name, s.g, s.w)
		}
	}
	gs, ws := got.Spatial, want.Spatial
	gs.MaxServersClass, ws.MaxServersClass = 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: Spatial diverged:\n got %+v\nwant %+v", label, gs, ws)
	}
}

// TestShardMergeEquivalence is the tentpole acceptance check: replaying
// the small study through N machine-hash shards and merging the per-shard
// snapshots must land on the single-engine numbers — exactly for every
// count-derived section, within the established sketch tolerances for the
// four distribution summaries — at N ∈ {1, 2, 8}, under uneven batch
// sizes, with the single engine itself already proven equal to batch
// core.Analyze.
func TestShardMergeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study at several shard counts")
	}
	fx := smallShardFixture(t)
	single, singleDet := replaySharded(t, fx.events, 1, unevenChunks(fx.events))
	if single.Report == nil {
		t.Fatal("single-engine snapshot has no report")
	}
	// Anchor the chain's far end: the single engine matches the batch
	// analysis on the count sections (the stream suite proves the full
	// contract; this keeps the three-way equality visible in one test).
	checkCountSections(t, "single-vs-batch", single.Report, fx.batch)

	for _, n := range []int{2, 8} {
		merged, mergedDet := replaySharded(t, fx.events, n, unevenChunks(fx.events))

		if merged.Events != single.Events || merged.Tickets != single.Tickets ||
			merged.CrashTickets != single.CrashTickets || merged.Machines != single.Machines ||
			merged.Incidents != single.Incidents || merged.MonitorSamples != single.MonitorSamples {
			t.Errorf("n=%d: headline counters diverged:\n got {ev %d tk %d crash %d m %d inc %d samp %d}\nwant {ev %d tk %d crash %d m %d inc %d samp %d}",
				n, merged.Events, merged.Tickets, merged.CrashTickets, merged.Machines, merged.Incidents, merged.MonitorSamples,
				single.Events, single.Tickets, single.CrashTickets, single.Machines, single.Incidents, single.MonitorSamples)
		}
		if !merged.Watermark.Equal(single.Watermark) {
			t.Errorf("n=%d: watermark %v, want %v", n, merged.Watermark, single.Watermark)
		}
		checkCountSections(t, "n=2/8-vs-single", merged.Report, single.Report)
		checkCountSections(t, "n=2/8-vs-batch", merged.Report, fx.batch)
		checkInterFailureMerged(t, "InterFailurePM", merged.Report.InterFailurePM, single.Report.InterFailurePM)
		checkInterFailureMerged(t, "InterFailureVM", merged.Report.InterFailureVM, single.Report.InterFailureVM)
		checkRepairMerged(t, "RepairPM", merged.Report.RepairPM, single.Report.RepairPM)
		checkRepairMerged(t, "RepairVM", merged.Report.RepairVM, single.Report.RepairVM)

		// The merged snapshot must clear the same fidelity gate the
		// single-engine snapshot clears: all supported bands pass.
		sb := merged.Fidelity()
		if sb == nil || len(sb.Bands) == 0 {
			t.Fatalf("n=%d: empty fidelity scoreboard from merged snapshot", n)
		}
		if err := sb.Err(); err != nil {
			t.Errorf("n=%d: fidelity gate on merged snapshot: %v", n, err)
		}

		// Detection on merged reads: counters sum exactly (machines are
		// disjoint across shards), the scoreboard still clears its gate,
		// and the lead-time summary stays within sketch tolerance.
		if mergedDet == nil || singleDet == nil {
			t.Fatalf("n=%d: missing detection snapshot (merged %v, single %v)", n, mergedDet != nil, singleDet != nil)
		}
		if mergedDet.Raised != singleDet.Raised || mergedDet.Confirmed != singleDet.Confirmed ||
			mergedDet.Expired != singleDet.Expired || mergedDet.ActiveCount != singleDet.ActiveCount ||
			mergedDet.Machines != singleDet.Machines {
			t.Errorf("n=%d: detection counters diverged:\n got {raised %d conf %d exp %d act %d m %d}\nwant {raised %d conf %d exp %d act %d m %d}",
				n, mergedDet.Raised, mergedDet.Confirmed, mergedDet.Expired, mergedDet.ActiveCount, mergedDet.Machines,
				singleDet.Raised, singleDet.Confirmed, singleDet.Expired, singleDet.ActiveCount, singleDet.Machines)
		}
		if mergedDet.MachineWeeks != singleDet.MachineWeeks {
			t.Errorf("n=%d: machine-weeks %g, want %g", n, mergedDet.MachineWeeks, singleDet.MachineWeeks)
		}
		relClose(t, "lead days mean", mergedDet.LeadDaysMean, singleDet.LeadDaysMean, 1e-9)
		relClose(t, "lead days p50", mergedDet.LeadDaysP50, singleDet.LeadDaysP50, 0.05)
		if dsb := ScoreDetection(mergedDet); dsb.Err() != nil {
			t.Errorf("n=%d: detection scoreboard gate on merged snapshot: %v", n, dsb.Err())
		}
	}
}

// TestShardMergeMidStream compares the count-derived sections of 2- and
// 3-shard merged reads with one engine's at five cuts through the stream,
// while the weeks around the watermark are still filling: the merge sums
// per-shard weekly failed-server counts, which is the size of the
// fleet-wide set only because no machine lives on two shards.
func TestShardMergeMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study at three shard counts")
	}
	fx := smallShardFixture(t)
	routers := []*shard.Router{newStudyRouter(t, 1), newStudyRouter(t, 2), newStudyRouter(t, 3)}
	lo := 0
	for cut := 1; cut <= 5; cut++ {
		hi := cut * len(fx.events) / 6
		for _, rt := range routers {
			if err := rt.Apply(fx.events[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		lo = hi
		single := routers[0].Snapshot()
		random := false
		for _, row := range single.Report.RandomRecurrent {
			random = random || row.Random > 0
		}
		if !random {
			t.Fatalf("cut %d/6: no failed servers yet, so the cut proves nothing", cut)
		}
		for _, rt := range routers[1:] {
			merged := rt.Snapshot()
			label := fmt.Sprintf("cut %d/6, n=%d", cut, rt.Shards())
			if merged.Events != single.Events || merged.CrashTickets != single.CrashTickets ||
				!merged.Watermark.Equal(single.Watermark) {
				t.Errorf("%s: events %d crash %d watermark %v, want %d %d %v", label,
					merged.Events, merged.CrashTickets, merged.Watermark,
					single.Events, single.CrashTickets, single.Watermark)
			}
			checkCountSections(t, label, merged.Report, single.Report)
		}
	}
}

// TestShardMergeOutOfOrderBatches feeds the same deterministically
// shuffled chunk order to a single engine and a 2-shard router: each
// machine's events still arrive in the same relative order on both sides
// (a machine lives on exactly one shard), so every count section must stay
// bit-identical even though the global stream is scrambled.
func TestShardMergeOutOfOrderBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study twice")
	}
	fx := smallShardFixture(t)
	// Shuffle only the timed middle: the machine inventory must precede
	// its tickets and the closing advance must stay last, exactly as the
	// wire protocol requires of any producer.
	var inventory, timed []StreamEvent
	for _, ev := range fx.events[:len(fx.events)-1] {
		if ev.Type == "machine" {
			inventory = append(inventory, ev)
		} else {
			timed = append(timed, ev)
		}
	}
	chunks := [][]StreamEvent{inventory}
	mid := unevenChunks(timed)
	rng := xrand.Derive(7, 0x5caff1e)
	rng.Shuffle(len(mid), func(i, j int) { mid[i], mid[j] = mid[j], mid[i] })
	chunks = append(chunks, mid...)
	chunks = append(chunks, fx.events[len(fx.events)-1:])

	single, _ := replaySharded(t, fx.events, 1, chunks)
	merged, _ := replaySharded(t, fx.events, 2, chunks)
	if merged.Events != single.Events || merged.OutOfOrder == 0 {
		t.Errorf("scrambled replay: events %d vs %d, out-of-order %d (want equal and >0)",
			merged.Events, single.Events, merged.OutOfOrder)
	}
	checkCountSections(t, "scrambled", merged.Report, single.Report)
}
