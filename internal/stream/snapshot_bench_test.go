package stream

import (
	"hash/fnv"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/detect"
	"failscope/internal/model"
)

// BenchmarkSnapshot times the read path at the small study's end state,
// with an online detector per engine as failscoped runs it: "engine" is
// one engine's Snapshot, "merge-2" is MergeSnapshot over two engines that
// hold the same stream split by machine the way the shard router splits
// it.
func BenchmarkSnapshot(b *testing.B) {
	cfg := dcsim.SmallConfig()
	field, err := dcsim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	events := EventsFromField(field.Data, field.Tickets, field.Monitor)
	build := func(n int) []*Engine {
		engines := make([]*Engine, n)
		for i := range engines {
			if engines[i], err = NewEngine(Config{Observation: cfg.Observation, Detector: detect.New(detect.Config{})}); err != nil {
				b.Fatal(err)
			}
		}
		for i, part := range splitByMachine(events, n) {
			if err := engines[i].Apply(part); err != nil {
				b.Fatal(err)
			}
		}
		return engines
	}
	b.Run("engine", func(b *testing.B) {
		eng := build(1)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Snapshot()
		}
	})
	b.Run("merge-2", func(b *testing.B) {
		engines := build(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MergeSnapshot(engines)
		}
	})
}

// splitByMachine deals events to n engines by an FNV-1a hash of the
// machine each one concerns (engine 0 for none). Machine, placement and advance events go to
// every engine, flagged Ref everywhere but at their owner (engine 0 for
// advances), so each engine can resolve the kinds of an incident's other
// servers and counts only what it owns. It copies the rule of
// shard.Router.ApplyTimed and shard.keyOf, which this package cannot
// import; a change to the router's split must be made here too, and this
// goes with the router if sharding is removed.
func splitByMachine(events []Event, n int) [][]Event {
	owner := func(id model.MachineID) int {
		if id == "" {
			return 0
		}
		h := fnv.New32a()
		h.Write([]byte(id))
		return int(h.Sum32() % uint32(n))
	}
	parts := make([][]Event, n)
	for _, ev := range events {
		var id model.MachineID
		switch {
		case ev.Machine != nil:
			id = ev.Machine.ID
		case ev.Ticket != nil:
			id = ev.Ticket.ServerID
		case ev.Incident != nil && len(ev.Incident.Servers) > 0:
			id = ev.Incident.Servers[0]
		default:
			id = ev.ServerID
		}
		own := owner(id)
		if ev.Type == "advance" {
			own = 0
		}
		switch ev.Type {
		case "machine", "placement", "advance":
			for s := range parts {
				cp := ev
				cp.Ref = s != own
				parts[s] = append(parts[s], cp)
			}
		default:
			parts[own] = append(parts[own], ev)
		}
	}
	return parts
}
