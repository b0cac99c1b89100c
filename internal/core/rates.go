package core

import (
	"failscope/internal/model"
	"failscope/internal/stats"
)

// RateSummary is one bar of Fig. 2: the weekly failure rate of a machine
// population, summarized over the observation weeks (mean, 25th and 75th
// percentile).
type RateSummary struct {
	Kind    model.MachineKind
	System  model.System // 0 = entire population ("All")
	Servers int
	Summary stats.Summary
}

// WeeklyFailureRates reproduces Fig. 2: per-kind weekly failure rates for
// the whole population and each subsystem. The weekly rate of a population
// is the number of its failures in that week divided by its server count.
func WeeklyFailureRates(in Input) []RateSummary {
	var out []RateSummary
	systems := append([]model.System{0}, model.Systems()...)
	for _, kind := range []model.MachineKind{model.PM, model.VM} {
		for _, sys := range systems {
			out = append(out, rateSummary(in, kind, sys))
		}
	}
	return out
}

func rateSummary(in Input, kind model.MachineKind, sys model.System) RateSummary {
	servers := in.Data.CountMachines(kind, sys)
	rs := RateSummary{Kind: kind, System: sys, Servers: servers}
	if servers == 0 {
		return rs
	}
	counts := weeklyCounts(in.Data.Observation, crashOf(in.Data, kind, sys))
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / float64(servers)
	}
	rs.Summary = stats.Summarize(rates)
	return rs
}
