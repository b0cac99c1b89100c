package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/stream"
)

var testEpoch = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)

func testWindow() model.Window {
	return model.Window{Start: testEpoch, End: testEpoch.Add(8 * 7 * 24 * time.Hour)}
}

// newEngines builds n shard engines over the shared test window, labeled
// the way the daemon labels them (so gauge families cannot collide even
// when the engines share a registry).
func newEngines(t *testing.T, n int) []*stream.Engine {
	t.Helper()
	engines := make([]*stream.Engine, n)
	for i := range engines {
		cfg := stream.Config{Observation: testWindow()}
		if n > 1 {
			cfg.GaugeLabel = fmt.Sprint(i)
		}
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	return engines
}

func newRouter(t *testing.T, n int, opts Options) *Router {
	t.Helper()
	opts.Engines = newEngines(t, n)
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func mkMachine(i int) stream.Event {
	kind := model.PM
	if i%2 == 1 {
		kind = model.VM
	}
	return stream.Event{Type: "machine", Machine: &model.Machine{
		ID:      model.MachineID(fmt.Sprintf("m-%03d", i)),
		Kind:    kind,
		System:  model.System(i%model.NumSystems + 1),
		Created: testEpoch,
	}}
}

func mkTicket(seq, machine int, at time.Time) stream.Event {
	return stream.Event{Type: "ticket", Ticket: &model.Ticket{
		ID:       fmt.Sprintf("t-%04d", seq),
		ServerID: model.MachineID(fmt.Sprintf("m-%03d", machine)),
		System:   model.System(machine%model.NumSystems + 1),
		Opened:   at,
		Closed:   at.Add(2 * time.Hour),
		IsCrash:  seq%3 == 0,
		Class:    model.FailureClass(seq%6 + 1),
	}}
}

func mkAdvance(at time.Time) stream.Event {
	t := at
	return stream.Event{Type: "advance", Time: &t}
}

// synthStream is a small deterministic fleet: nMachines inventory events
// followed by tickets sweeping the window in time order, with a trailing
// advance so every watermark lands on the same instant.
func synthStream(nMachines, nTickets int) []stream.Event {
	events := make([]stream.Event, 0, nMachines+nTickets+1)
	for i := 0; i < nMachines; i++ {
		events = append(events, mkMachine(i))
	}
	span := testWindow().Duration() - 48*time.Hour
	for s := 0; s < nTickets; s++ {
		at := testEpoch.Add(time.Duration(int64(span) / int64(nTickets) * int64(s)))
		events = append(events, mkTicket(s, s%nMachines, at))
	}
	events = append(events, mkAdvance(testWindow().End.Add(-time.Hour)))
	return events
}

func TestShardOfStableEmptyKeyAndSpread(t *testing.T) {
	r := newRouter(t, 4, Options{})
	if got := r.shardOf(""); got != 0 {
		t.Errorf("empty key routed to shard %d, want 0", got)
	}
	used := map[int]bool{}
	for i := 0; i < 100; i++ {
		key := model.MachineID(fmt.Sprintf("m-%03d", i))
		s := r.shardOf(key)
		if s < 0 || s >= 4 {
			t.Fatalf("shardOf(%q) = %d out of range", key, s)
		}
		if again := r.shardOf(key); again != s {
			t.Fatalf("shardOf(%q) unstable: %d then %d", key, s, again)
		}
		used[s] = true
	}
	if len(used) < 3 {
		t.Errorf("100 keys landed on only %d of 4 shards", len(used))
	}
}

// TestMachineOwnershipDisjoint proves the broadcast/ownership invariant:
// every machine is counted by exactly one shard, so the per-shard owned
// counts sum to the fleet size while every shard can still resolve every
// machine's kind (via its replica inventory).
func TestMachineOwnershipDisjoint(t *testing.T) {
	r := newRouter(t, 4, Options{})
	const fleet = 60
	events := make([]stream.Event, 0, fleet)
	for i := 0; i < fleet; i++ {
		events = append(events, mkMachine(i))
	}
	if err := r.Apply(events); err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, e := range r.Engines() {
		n := e.Totals().Machines
		if n == fleet {
			t.Errorf("one shard owns the whole fleet; broadcast should split ownership")
		}
		owned += n
	}
	if owned != fleet {
		t.Errorf("per-shard owned machines sum to %d, want %d", owned, fleet)
	}
	if snap := r.Snapshot(); snap.Machines != fleet {
		t.Errorf("merged snapshot Machines = %d, want %d", snap.Machines, fleet)
	}
}

// TestRouterMatchesSingleEngine applies the identical synthetic stream to
// a passthrough router and a 3-shard router, in the same uneven chunks,
// and requires the merged read surface to match the single engine: the
// sequence, the headline counters, and every count-derived report section
// bit for bit.
func TestRouterMatchesSingleEngine(t *testing.T) {
	events := synthStream(40, 600)
	single := Single(newEngines(t, 1)[0])
	sharded := newRouter(t, 3, Options{})

	sizes := []int{7, 150, 1, 300, len(events)} // uneven; last takes the rest
	lo := 0
	for _, size := range sizes {
		hi := lo + size
		if hi > len(events) {
			hi = len(events)
		}
		for _, r := range []*Router{single, sharded} {
			if err := r.Apply(events[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		lo = hi
	}

	if single.Seq() != sharded.Seq() {
		t.Errorf("Seq: single %d, sharded %d", single.Seq(), sharded.Seq())
	}
	want, got := single.Snapshot(), sharded.Snapshot()
	if got.Events != want.Events || got.Tickets != want.Tickets ||
		got.CrashTickets != want.CrashTickets || got.Machines != want.Machines {
		t.Errorf("counters diverged: got {ev %d tk %d crash %d m %d}, want {ev %d tk %d crash %d m %d}",
			got.Events, got.Tickets, got.CrashTickets, got.Machines,
			want.Events, want.Tickets, want.CrashTickets, want.Machines)
	}
	if !got.Watermark.Equal(want.Watermark) {
		t.Errorf("watermark: got %v, want %v", got.Watermark, want.Watermark)
	}
	if !reflect.DeepEqual(got.Report.DatasetStats, want.Report.DatasetStats) {
		t.Errorf("DatasetStats diverged:\n got %+v\nwant %+v", got.Report.DatasetStats, want.Report.DatasetStats)
	}
	if !reflect.DeepEqual(got.Report.ClassDistribution, want.Report.ClassDistribution) {
		t.Errorf("ClassDistribution diverged:\n got %+v\nwant %+v",
			got.Report.ClassDistribution, want.Report.ClassDistribution)
	}
	if !reflect.DeepEqual(got.Report.WeeklyRates, want.Report.WeeklyRates) {
		t.Errorf("WeeklyRates diverged:\n got %+v\nwant %+v", got.Report.WeeklyRates, want.Report.WeeklyRates)
	}
	if !reflect.DeepEqual(got.Report.RecurrencePM, want.Report.RecurrencePM) {
		t.Errorf("RecurrencePM diverged:\n got %+v\nwant %+v", got.Report.RecurrencePM, want.Report.RecurrencePM)
	}
	if !reflect.DeepEqual(got.Report.RecurrenceVM, want.Report.RecurrenceVM) {
		t.Errorf("RecurrenceVM diverged:\n got %+v\nwant %+v", got.Report.RecurrenceVM, want.Report.RecurrenceVM)
	}
}

// TestConcurrentPosters drives a 4-shard router from many goroutines at
// once: the posters contend in each shard engine's group commit, which
// must hold them (never drop, never panic), and the fleet totals must come
// out exact.
func TestConcurrentPosters(t *testing.T) {
	r := newRouter(t, 4, Options{})
	const fleet = 32
	inventory := make([]stream.Event, 0, fleet)
	for i := 0; i < fleet; i++ {
		inventory = append(inventory, mkMachine(i))
	}
	if err := r.Apply(inventory); err != nil {
		t.Fatal(err)
	}

	const posters, batches, perBatch = 8, 20, 25
	var wg sync.WaitGroup
	errs := make(chan error, posters)
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				events := make([]stream.Event, 0, perBatch)
				for k := 0; k < perBatch; k++ {
					seq := (p*batches+b)*perBatch + k
					at := testEpoch.Add(time.Duration(seq) * time.Minute)
					events = append(events, mkTicket(seq, seq%fleet, at))
				}
				if err := r.Apply(events); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	wantEvents := int64(fleet + posters*batches*perBatch)
	if got := r.Seq(); got != wantEvents {
		t.Errorf("Seq = %d, want %d", got, wantEvents)
	}
	if snap := r.Snapshot(); snap.Tickets != int64(posters*batches*perBatch) {
		t.Errorf("Tickets = %d, want %d", snap.Tickets, posters*batches*perBatch)
	}
}

// TestApplyAfterCloseFails requires every apply issued after Close to
// fail, the one-shard passthrough included.
func TestApplyAfterCloseFails(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			r := newRouter(t, n, Options{})
			r.Close()
			r.Close() // idempotent
			if err := r.Apply(synthStream(2, 2)); err == nil {
				t.Error("Apply after Close succeeded, want error")
			}
			if _, err := r.ApplyBatchTimed(&stream.Batch{Events: synthStream(2, 2)}); err == nil {
				t.Error("ApplyBatchTimed after Close succeeded, want error")
			}
			if seq := r.Seq(); seq != 0 {
				t.Errorf("Seq after refused applies = %d, want 0", seq)
			}
		})
	}
}

// TestPublishAggregates checks the scrape-time metric contract: per-shard
// labeled shard.events counters sum to the fleet event count, the
// unlabeled stream.* gauges carry the aggregate, and re-publishing without
// new traffic does not double-count the deltas.
func TestPublishAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRouter(t, 4, Options{Registry: reg})
	events := synthStream(40, 400)
	if err := r.Apply(events); err != nil {
		t.Fatal(err)
	}

	r.Publish(reg)
	r.Publish(reg) // second scrape: deltas must be zero
	snap := reg.Snapshot()

	var perShard float64
	for i := 0; i < 4; i++ {
		perShard += snap[fmt.Sprintf(`shard.events{shard="%d"}`, i)]
	}
	want := float64(len(events))
	if perShard != want {
		t.Errorf("sum of shard.events = %g, want %g", perShard, want)
	}
	if snap["stream.events"] != want {
		t.Errorf("stream.events aggregate = %g, want %g", snap["stream.events"], want)
	}
	if snap["stream.machines"] != 40 {
		t.Errorf("stream.machines aggregate = %g, want 40", snap["stream.machines"])
	}
}

// TestSinglePassthroughPublishesNothing pins the back-compat contract: a
// one-engine router adds no shard.* families and leaves the stream.*
// surface to its engine, exactly as before sharding.
func TestSinglePassthroughPublishesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	r := Single(newEngines(t, 1)[0])
	if err := r.Apply(synthStream(4, 10)); err != nil {
		t.Fatal(err)
	}
	r.Publish(reg)
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Errorf("passthrough Publish wrote %d metrics, want 0: %v", len(snap), snap)
	}
	if r.Shards() != 1 {
		t.Errorf("Shards = %d, want 1", r.Shards())
	}
}
