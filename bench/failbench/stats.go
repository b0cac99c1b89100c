package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples has two beyond it and is no tail.
const minBeyond = 10

// tailP is the highest percentile a gated tail reports. Over two 10-seed
// sets on this host, POST latency's p99.9 spread 26% run to run and its p99
// 24%, at the 0.25 bound; the p99 is printed beside the gated tail instead.
const tailP = 0.9

// percentile returns the nearest-rank p-quantile of xs, if at least
// minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	s := sortedCopy(xs)
	k := max(1, int(math.Ceil(p*float64(len(s)))))
	if len(s)-k < minBeyond {
		return 0, false
	}
	return s[k-1], true
}

// tail is the highest percentile of xs, up to tailP, that has at least
// minBeyond samples beyond it: p90 from 100 samples, the sample ranked
// minBeyond+1 from the top below that, the maximum (labelled p100) from
// minBeyond samples down. Empty input gives (0, 0).
func tail(xs []float64) (p, v float64) {
	n := len(xs)
	if v, ok := percentile(xs, tailP); ok {
		return tailP, v
	}
	switch {
	case n == 0:
		return 0, 0
	case n <= minBeyond:
		return 1, sortedCopy(xs)[n-1]
	}
	k := n - minBeyond
	return float64(k) / float64(n), sortedCopy(xs)[k-1]
}

// median is the middle value of xs, the mean of the two middle values for
// an even count (0 for empty input).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule the
// repeatability check of the benchmark is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB parses the VmHWM line of a /proc/<pid>/status file — the
// process's peak resident set since its exec, in KiB — into MiB. The
// rusage Maxrss of a child is useless here: Linux carries the parent's
// high-water mark across fork and exec, so every child of a driver holding
// the generated stream would report at least the driver's size.
func peakRSSMiB(status []byte) (float64, bool) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// ops counts a workload's operations: each POST, GET, daemon start and
// program run is attempted once and fails on a transport error, a non-2xx
// status, a missed correctness check or a non-zero exit.
type ops struct {
	attempted, failed int
	firstErr          error
}

// record counts one operation with its outcome and reports whether it
// succeeded.
func (o *ops) record(err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
	return false
}

// add folds another tally into o.
func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// budget decides whether another pass fits a run's measuring time: the
// first always runs, a later one only when it should end within the budget
// if it takes as long as the longest pass so far.
type budget struct {
	start, last time.Time
	limit       time.Duration
	longest     time.Duration
}

func newBudget(limit time.Duration) *budget {
	return &budget{start: time.Now(), limit: limit}
}

func (b *budget) next() bool {
	now := time.Now()
	if b.last.IsZero() {
		b.last = now
		return true
	}
	b.longest = max(b.longest, now.Sub(b.last))
	b.last = now
	return now.Sub(b.start)+b.longest <= b.limit
}

// openLoop paces requests on a fixed schedule: request i is due at start +
// i*interval whatever happened to request i-1. Latency runs from the due
// time, so a stall in the system counts against every request that fell
// due during it; lateness is how far behind schedule the generator itself
// sent, reported so a slow generator is not mistaken for a slow server.
type openLoop struct {
	start    time.Time
	interval time.Duration
	latency  []float64 // ms, due → response read
	lateness []float64 // ms, due → request sent
}

func newOpenLoop(start time.Time, interval time.Duration) *openLoop {
	return &openLoop{start: start, interval: interval}
}

func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

func (o *openLoop) record(i int, sent, done time.Time) {
	due := o.due(i)
	o.latency = append(o.latency, ms(done.Sub(due)))
	o.lateness = append(o.lateness, ms(sent.Sub(due)))
}

// percentLabel names a tail percentile for the report: p90, p64.3, p100.
func percentLabel(p float64) string {
	return fmt.Sprintf("p%g", math.Round(1000*p)/10)
}
