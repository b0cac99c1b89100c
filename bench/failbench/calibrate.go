package main

import "time"

// refProbeMS is the probe's wall time on the reference host: the 2-CPU
// container the baselines were measured on, while no neighbour contends
// for its caches. Gated timings are scaled to that host speed.
const refProbeMS = 15

// probe measures how fast the host runs memory-bound code right now. The
// shared host of the reference container flips, for tens of seconds at a
// time, between two speeds: in the slow one every cache-missing program
// takes 1.5–2x longer. A fixed run of map lookups over a table far larger than
// the caches slows down as the daemon's map-heavy engine does, and no
// failscope code takes part in it, so a change to the programs under test
// cannot change it.
type probe struct {
	table map[uint64]uint64
	keys  []uint64
}

const (
	probeTable   = 1 << 20
	probeLookups = 300_000
	probeRepeats = 3
)

func newProbe() *probe {
	p := &probe{table: make(map[uint64]uint64, probeTable), keys: make([]uint64, probeLookups)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < probeTable; i++ {
		p.table[next()] = uint64(i)
	}
	for i := range p.keys {
		p.keys[i] = next()
	}
	return p
}

var probeSink uint64

// ms returns the median of a few probe runs in milliseconds.
func (p *probe) ms() float64 {
	var runs []float64
	for r := 0; r < probeRepeats; r++ {
		t := time.Now()
		var sum uint64
		for _, k := range p.keys {
			sum += p.table[k]
		}
		probeSink += sum
		runs = append(runs, ms(time.Since(t)))
	}
	return median(runs)
}

// factors turns probe readings taken before and after each of n timed
// steps (n+1 readings) into per-step factors: a time measured in step i,
// multiplied by factors[i], is the time it would have taken on the
// reference host.
func factors(probes []float64) []float64 {
	f := make([]float64, 0, len(probes))
	for i := 0; i+1 < len(probes); i++ {
		f = append(f, 2*refProbeMS/(probes[i]+probes[i+1]))
	}
	return f
}
