package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"failscope/internal/par"
)

// Span is one node of the stage trace: a named interval of the pipeline
// recording wall time, a CPU-time estimate (summed worker busy time from
// the pools that ran under it), the allocation delta across its lifetime
// and the peak worker count. Spans nest — Child starts a sub-span — and a
// finished tree renders as an indented text breakdown (Tree) or as a JSON
// run report (Report).
//
// Every method is a no-op on a nil receiver, so library code instruments
// unconditionally and un-observed callers pay a single pointer test. Spans
// never touch any random stream: attaching, detaching or re-parenting
// observation cannot change a single byte of pipeline output.
type Span struct {
	name string

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	allocs   uint64 // allocation-count delta (approximate under siblings)
	bytes    uint64 // allocated-bytes delta
	busy     time.Duration
	maxBusy  time.Duration
	workers  int
	items    int64
	procs    int // GOMAXPROCS at span close (0 until End)
	children []*Span
	log      *Logger // optional; End emits a debug record when set

	startMallocs, startBytes uint64
}

// Root starts a top-level span. Observers create one per run; tests and
// standalone tools may start their own.
func Root(name string) *Span {
	s := &Span{name: name, start: time.Now()}
	s.startMallocs, s.startBytes = memCounters()
	return s
}

// memCounters samples the global allocation counters. ReadMemStats is a
// brief stop-the-world, which is why spans mark stage boundaries (dozens
// per run), never per-item work.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a sub-span. On a nil receiver it returns nil, so a whole
// instrumented subtree collapses to no-ops when observation is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	c.startMallocs, c.startBytes = memCounters()
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// setLogger attaches the run logger so End can emit a stage-end record.
func (s *Span) setLogger(l *Logger) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// End closes the span, freezing its wall time and allocation delta.
// Ending twice keeps the first measurement. With a logger attached the
// close emits one debug record (stage name, wall time, item count).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	// GOMAXPROCS at close time rides along in the report: span wall times
	// are only comparable across runs that had the same parallelism
	// available, and the setting can change mid-process (GOMAXPROCS calls,
	// runtime defaults), so the run-level meta alone is not enough.
	s.procs = runtime.GOMAXPROCS(0)
	mallocs, bytes := memCounters()
	if mallocs >= s.startMallocs {
		s.allocs = mallocs - s.startMallocs
	}
	if bytes >= s.startBytes {
		s.bytes = bytes - s.startBytes
	}
	log, name, wall, items := s.log, s.name, s.end.Sub(s.start), s.items
	s.mu.Unlock()
	log.Debug("stage end", "stage", name, "wall_ms", ms(wall), "items", items)
}

// AddPool folds one worker-pool invocation into the span: busy time
// accumulates (the CPU-time estimate), residency accumulates, items count,
// and the worker count keeps its observed maximum. Stages that sweep
// repeatedly (e.g. one pool per Lloyd iteration) call this once per sweep.
func (s *Span) AddPool(st par.Stats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.busy += st.Busy
	s.maxBusy += st.MaxBusy
	s.items += int64(st.Items)
	if st.Workers > s.workers {
		s.workers = st.Workers
	}
	s.mu.Unlock()
}

// AddItems counts work items attributed to the span (tickets rendered,
// documents vectorized, iterations run, ...).
func (s *Span) AddItems(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.items += int64(n)
	s.mu.Unlock()
}

// Wall returns the span's wall-clock duration (through now if unfinished;
// 0 on nil).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Busy returns the accumulated worker busy time (0 on nil).
func (s *Span) Busy() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// Children returns the direct sub-spans in start order (nil on nil).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// NumSpans counts the spans in the subtree, the root included (0 on nil).
func (s *Span) NumSpans() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children() {
		n += c.NumSpans()
	}
	return n
}

// Find returns the first span in the subtree with the given name, by
// depth-first pre-order, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Tree renders the span tree as an indented text breakdown, one line per
// span: wall time, busy (CPU-estimate) time, peak workers, item and
// allocation counts. Empty string on nil.
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.writeTree(&b, 0)
	return b.String()
}

func (s *Span) writeTree(b *strings.Builder, depth int) {
	s.mu.Lock()
	name := s.name
	wall := s.end.Sub(s.start)
	if s.end.IsZero() {
		wall = time.Since(s.start)
	}
	busy, workers, items, allocs, bytes := s.busy, s.workers, s.items, s.allocs, s.bytes
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%-36s %10s", indent+name, fmtDur(wall))
	if busy > 0 {
		fmt.Fprintf(b, "  busy %9s", fmtDur(busy))
	}
	if workers > 1 {
		fmt.Fprintf(b, "  x%d", workers)
	}
	if items > 0 {
		fmt.Fprintf(b, "  %d items", items)
	}
	if allocs > 0 {
		fmt.Fprintf(b, "  %s allocs (%s)", fmtCount(allocs), fmtBytes(bytes))
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.writeTree(b, depth+1)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func fmtCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Report converts the span tree into its JSON-serializable form.
func (s *Span) Report() *SpanReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	wall := s.end.Sub(s.start)
	if s.end.IsZero() {
		wall = time.Since(s.start)
	}
	r := &SpanReport{
		Name:       s.name,
		WallMS:     ms(wall),
		BusyMS:     ms(s.busy),
		MaxBusyMS:  ms(s.maxBusy),
		Workers:    s.workers,
		Items:      s.items,
		Allocs:     s.allocs,
		AllocBytes: s.bytes,
		GOMAXPROCS: s.procs,
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		r.Children = append(r.Children, c.Report())
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
