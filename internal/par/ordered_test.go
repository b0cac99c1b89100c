package par

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// seqUnit is a unit of the counting stream the Ordered tests run: the
// reader numbers units 1..n and a worker squares the number.
type seqUnit struct{ i, sq int }

// countTo returns a read func that numbers units 1..n.
func countTo(n int) func(u *seqUnit) bool {
	next := 0
	return func(u *seqUnit) bool {
		next++
		u.i = next
		return next < n
	}
}

func square(_ *struct{}, u *seqUnit) { u.sq = u.i * u.i }

// TestOrderedFoldsInOrder: every unit is folded once, in read order, with
// the work done on it, at every worker count.
func TestOrderedFoldsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 7, 1000} {
			want := 1
			st, err := Ordered(workers, countTo(n), square, func(u *seqUnit) error {
				if u.i != want || u.sq != want*want {
					return fmt.Errorf("folded unit %d (square %d), want %d", u.i, u.sq, want)
				}
				want++
				return nil
			})
			if err != nil || want != n+1 {
				t.Fatalf("workers=%d n=%d: folded %d units, err %v", workers, n, want-1, err)
			}
			if st.Workers != max(workers, 1) || st.Items != n {
				t.Fatalf("workers=%d n=%d: stats %+v", workers, n, st)
			}
		}
	}
}

// TestOrderedFirstErrorStops: the first fold error is returned, no unit
// after it is folded, and reading stops within the units in flight.
func TestOrderedFirstErrorStops(t *testing.T) {
	errStop := errors.New("stop")
	for _, workers := range []int{1, 2, 4} {
		read := countTo(1 << 20)
		reads := 0
		folded := 0
		_, err := Ordered(workers, func(u *seqUnit) bool { reads++; return read(u) }, square,
			func(u *seqUnit) error {
				folded++
				if u.i == 10 {
					return errStop
				}
				return nil
			})
		if err != errStop || folded != 10 {
			t.Fatalf("workers=%d: err %v after folding %d units, want %v after 10", workers, err, folded, errStop)
		}
		if reads > 10+workers+3 {
			t.Fatalf("workers=%d: read %d units after an error at unit 10", workers, reads)
		}
	}
}

// waitGoroutines waits until no more than n goroutines are running: the
// pipeline's goroutines have all called Done when Ordered returns, but may
// take a moment to exit.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left running, want %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestOrderedPanicReraised: a panic in read, work or fold reaches the
// caller with its own value, and no pipeline goroutine is left behind.
func TestOrderedPanicReraised(t *testing.T) {
	const at = 37
	cases := map[string]struct {
		read func() func(u *seqUnit) bool // a fresh stream per run
		work func(s *struct{}, u *seqUnit)
		fold func(u *seqUnit) error
	}{
		"read": {
			read: func() func(u *seqUnit) bool {
				read := countTo(1000)
				return func(u *seqUnit) bool {
					if more := read(u); u.i != at {
						return more
					}
					panic("boom")
				}
			},
			work: square,
			fold: func(*seqUnit) error { return nil },
		},
		"work": {
			read: func() func(u *seqUnit) bool { return countTo(1000) },
			work: func(s *struct{}, u *seqUnit) {
				if u.i == at {
					panic("boom")
				}
			},
			fold: func(*seqUnit) error { return nil },
		},
		"fold": {
			read: func() func(u *seqUnit) bool { return countTo(1000) },
			work: square,
			fold: func(u *seqUnit) error {
				if u.i == at {
					panic("boom")
				}
				return nil
			},
		},
	}
	for name, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			base := runtime.NumGoroutine()
			folded := 0
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s panic, workers=%d: recovered %v, want \"boom\"", name, workers, r)
					}
				}()
				Ordered(workers, tc.read(), tc.work, func(u *seqUnit) error {
					folded++
					return tc.fold(u)
				})
				t.Fatalf("%s panic, workers=%d: Ordered returned", name, workers)
			}()
			// A sequential loop reaches the panic after folding the units
			// before it; the pipeline folds exactly those.
			if want := map[string]int{"read": at - 1, "work": at - 1, "fold": at}[name]; folded != want {
				t.Fatalf("%s panic, workers=%d: folded %d units, want %d", name, workers, folded, want)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestOrderedErrorBeforePanic: an error folded before a unit whose work
// panicked wins, as in a sequential loop that never reaches the panic.
func TestOrderedErrorBeforePanic(t *testing.T) {
	errStop := errors.New("stop")
	for _, workers := range []int{1, 2, 4} {
		_, err := Ordered(workers, countTo(100),
			func(_ *struct{}, u *seqUnit) {
				if u.i == 3 {
					panic("boom")
				}
			},
			func(u *seqUnit) error {
				if u.i == 2 {
					return errStop
				}
				return nil
			})
		if err != errStop {
			t.Fatalf("workers=%d: err %v, want %v", workers, err, errStop)
		}
	}
}
