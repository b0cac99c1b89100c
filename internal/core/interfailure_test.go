package core

import (
	"sync"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/ingest"
	"failscope/internal/model"
)

// generatedInput produces a small generated dataset once per test binary
// for analyses that need realistic volume.
var (
	genOnce sync.Once
	genIn   Input
	genErr  error
)

func generatedInput(t *testing.T) Input {
	t.Helper()
	genOnce.Do(func() {
		cfg := dcsim.SmallConfig()
		out, err := dcsim.Generate(cfg)
		if err != nil {
			genErr = err
			return
		}
		opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
		opts.SkipClassification = true
		col, err := ingest.Collect(out.Data, out.Tickets, out.Monitor, opts)
		if err != nil {
			genErr = err
			return
		}
		genIn = Input{Data: col.Data, Attrs: col.Attrs}
	})
	if genErr != nil {
		t.Fatal(genErr)
	}
	return genIn
}

func TestInterFailureCensoredSample(t *testing.T) {
	in := newBuilder().
		machine("a", model.PM, model.SysI, model.Capacity{}).
		machine("b", model.PM, model.SysI, model.Capacity{}).
		crash("a", model.SysI, 0, model.ClassSoftware, 1).
		crash("a", model.SysI, 30, model.ClassSoftware, 1).
		crash("b", model.SysI, 100, model.ClassSoftware, 1).
		input()
	sample, _ := InterFailureCensored(in, model.PM)
	// Observed: the 30-day gap on server a.
	if len(sample.Observed) != 1 || sample.Observed[0] != 30 {
		t.Fatalf("observed = %v", sample.Observed)
	}
	// Censored: from each server's last failure to the window end.
	if len(sample.Censored) != 2 {
		t.Fatalf("censored = %v", sample.Censored)
	}
	days := obsWin.Duration().Hours() / 24
	wantA := days - 30
	wantB := days - 100
	got := map[float64]bool{sample.Censored[0]: true, sample.Censored[1]: true}
	if !got[wantA] || !got[wantB] {
		t.Fatalf("censored = %v, want {%v, %v}", sample.Censored, wantA, wantB)
	}
}

func TestInterFailureCensoredRaisesMean(t *testing.T) {
	// On generated data the censored fit should estimate a mean at least
	// as large as the naive fit (the window bias is downward).
	if testing.Short() {
		t.Skip("profile-likelihood search is slow")
	}
	in := generatedInput(t)
	naive := InterFailure(in, model.VM)
	naiveBest, ok := naive.Fits.Best()
	if !ok {
		t.Fatal("no naive fit")
	}
	_, sel := InterFailureCensored(in, model.VM)
	best, ok := sel.Best()
	if !ok {
		t.Fatal("no censored fit")
	}
	if best.Dist.Mean() < 0.9*naiveBest.Dist.Mean() {
		t.Errorf("censored mean %.1f d below naive %.1f d — censoring should raise the estimate",
			best.Dist.Mean(), naiveBest.Dist.Mean())
	}
}

func TestInterFailureKSPopulated(t *testing.T) {
	in := generatedInput(t)
	res := InterFailure(in, model.PM)
	if res.KS.N == 0 || res.KS.Statistic <= 0 {
		t.Fatalf("KS not populated: %+v", res.KS)
	}
}
