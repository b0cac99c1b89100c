// Streaming analysis: the batch study as a live feed. This example
// generates the small-study field data, flattens it into the ordered
// event stream a real deployment would produce (inventory first, then
// tickets, monitoring samples and placements in arrival order), and
// replays it month by month through the incremental engine — printing the
// PM/VM weekly failure rates as they converge toward the batch numbers,
// and the paper-band scoreboard at the end.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"os"

	"failscope"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run() error {
	study := failscope.SmallStudy()
	field, err := failscope.Generate(study.Generator)
	if err != nil {
		return err
	}
	events := failscope.StreamEventsFromField(field)
	fmt.Printf("replaying %d events through the streaming engine\n\n", len(events))

	eng, err := failscope.NewStreamEngine(failscope.StreamConfig{
		Observation: study.Generator.Observation,
		FineWindow:  study.Generator.FineWindow,
	})
	if err != nil {
		return err
	}

	// Feed the stream in twelve slices and snapshot after each: the
	// engine is queryable at any point, not just at the end.
	fmt.Printf("%-8s %10s %14s %14s\n", "batch", "tickets", "PM rate/week", "VM rate/week")
	const slices = 12
	for i := 0; i < slices; i++ {
		lo, hi := i*len(events)/slices, (i+1)*len(events)/slices
		if err := eng.Apply(events[lo:hi]); err != nil {
			return err
		}
		snap := eng.Snapshot()
		var pm, vm float64
		for _, r := range snap.Report.WeeklyRates {
			if r.System == 0 {
				switch r.Kind {
				case failscope.PM:
					pm = r.Summary.Mean
				case failscope.VM:
					vm = r.Summary.Mean
				}
			}
		}
		fmt.Printf("%-8d %10d %14.5f %14.5f\n", i+1, snap.Tickets, pm, vm)
	}

	// The final snapshot carries the partial paper report; score it
	// against the published bands.
	snap := eng.Snapshot()
	sb := snap.Fidelity()
	fmt.Printf("\nfinal snapshot: %d events, %d crash tickets, watermark %s\n",
		snap.Events, snap.CrashTickets, snap.Watermark.Format("2006-01-02"))
	fmt.Printf("fidelity: %d passed, %d warned, %d failed, %d skipped\n",
		sb.Passed, sb.Warned, sb.Failed, sb.Skipped)
	for _, b := range sb.Bands {
		if b.Verdict != failscope.FidelitySkip {
			fmt.Printf("  %-28s %-5s value %.4g\n", b.Name, b.Verdict, b.Value)
		}
	}
	return nil
}
