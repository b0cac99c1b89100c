package jsonl

import (
	"bufio"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// counter is a worker state: how many lines this worker parsed.
type counter struct{ lines int }

// TestDecodeFoldsInFileOrder decodes numbered lines, with blank ones
// between, at several worker counts and block sizes: fold must see every
// record once, in file order, under its own line number.
func TestDecodeFoldsInFileOrder(t *testing.T) {
	const n = 5000
	var in strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&in, "%d\n", i)
		if i%7 == 0 {
			in.WriteString("\n")
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, size := range []int{1, 3, BlockLines} {
			sc := bufio.NewScanner(strings.NewReader(in.String()))
			next, line := 1, 0
			st, err := Decode(sc, workers, size,
				func(c *counter, b []byte, num int, rec *int) (err error) {
					c.lines++
					*rec, err = strconv.Atoi(string(b))
					return err
				},
				func(num int, rec *int) error {
					line++
					if *rec != next || num != line {
						return fmt.Errorf("record %d on line %d, want %d on line %d", *rec, num, next, line)
					}
					if next%7 == 0 {
						line++ // the blank line after it
					}
					next++
					return nil
				})
			if err != nil {
				t.Fatalf("%d workers, %d-line blocks: %v", workers, size, err)
			}
			if next != n+1 || st.Items != n || st.Workers != workers {
				t.Fatalf("%d workers, %d-line blocks: folded %d records, stats %+v", workers, size, next-1, st)
			}
		}
	}
}

// TestDecodeFirstErrorWins puts a parse error and a fold error on
// different lines: whichever comes first in the file is reported, at any
// worker count and block size.
func TestDecodeFirstErrorWins(t *testing.T) {
	var in strings.Builder
	for i := 1; i <= 1000; i++ {
		fmt.Fprintf(&in, "%d\n", i)
	}
	errParse, errFold := errors.New("parse"), errors.New("fold")
	for _, tc := range []struct {
		parseAt, foldAt int
		want            error
	}{
		{10, 600, errParse},
		{600, 10, errFold},
		{1000, 999, errFold},
		{1, 1000, errParse},
	} {
		for _, workers := range []int{1, 2, 4} {
			for _, size := range []int{1, 2, 3, BlockLines} {
				sc := bufio.NewScanner(strings.NewReader(in.String()))
				_, err := Decode(sc, workers, size,
					func(_ *counter, b []byte, num int, rec *int) error {
						if num == tc.parseAt {
							return errParse
						}
						*rec = num
						return nil
					},
					func(num int, rec *int) error {
						if num == tc.foldAt {
							return errFold
						}
						return nil
					})
				if err != tc.want {
					t.Fatalf("parse error on %d, fold error on %d, %d workers, %d-line blocks: err = %v, want %v",
						tc.parseAt, tc.foldAt, workers, size, err, tc.want)
				}
			}
		}
	}
}

// TestDecodeWorkerState checks each worker keeps its own state across
// blocks: the per-worker line counts add up to the input.
func TestDecodeWorkerState(t *testing.T) {
	in := strings.Repeat("x\n", 3000)
	for _, workers := range []int{1, 2, 4} {
		var states []*counter
		seen := map[*counter]bool{}
		sc := bufio.NewScanner(strings.NewReader(in))
		_, err := Decode(sc, workers, 16,
			func(c *counter, _ []byte, _ int, rec **counter) error {
				c.lines++
				*rec = c
				return nil
			},
			func(_ int, rec **counter) error {
				if !seen[*rec] {
					seen[*rec] = true
					states = append(states, *rec)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range states {
			total += c.lines
		}
		if total != 3000 || len(states) > workers {
			t.Fatalf("%d workers: %d states parsed %d lines", workers, len(states), total)
		}
	}
}

// TestDecodeParsePanicReraised: a parse panic in a later block reaches
// Decode's caller with its own value, and none of the pipeline's
// goroutines is left running.
func TestDecodeParsePanicReraised(t *testing.T) {
	in := strings.Repeat("x\n", 3000)
	for _, workers := range []int{1, 2} {
		base := runtime.NumGoroutine()
		boom := errors.New("boom")
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("%d workers: recovered %v, want %v", workers, r, boom)
				}
			}()
			Decode(bufio.NewScanner(strings.NewReader(in)), workers, 16,
				func(_ *counter, _ []byte, num int, rec *int) error {
					if num == 16*5+3 { // block 5
						panic(boom)
					}
					return nil
				},
				func(int, *int) error { return nil })
			t.Fatalf("%d workers: Decode returned", workers)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers: %d goroutines left running, want %d", workers, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}
