package ticketdb

import (
	"strings"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

var (
	t0  = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	obs = model.Window{Start: t0, End: t0.AddDate(1, 0, 0)}
)

func TestRendererCrashMentionsHost(t *testing.T) {
	rd, r := NewRenderer(0), xrand.New(1)
	for _, class := range model.Classes() {
		desc, res := rd.CrashWith(r, class, "srv-042")
		if !strings.Contains(desc, "srv-042") {
			t.Errorf("%v description lacks host: %q", class, desc)
		}
		if desc == "" || res == "" {
			t.Errorf("%v produced empty text", class)
		}
	}
}

func TestRendererVagueProbability(t *testing.T) {
	rd := NewRenderer(1.0) // always vague
	desc, res := rd.CrashWith(xrand.New(2), model.ClassHardware, "h1")
	// With vagueProb=1 a hardware ticket must use the vague templates,
	// which never mention hardware-specific vocabulary.
	for _, word := range []string{"disk", "psu", "raid", "dimm"} {
		if strings.Contains(desc, word) || strings.Contains(res, word) {
			t.Errorf("vague ticket leaked class vocabulary: %q / %q", desc, res)
		}
	}
}

func TestRendererUnknownClassFallsBack(t *testing.T) {
	rd := NewRenderer(0)
	desc, res := rd.CrashWith(xrand.New(3), model.FailureClass(99), "h1")
	if desc == "" || res == "" {
		t.Fatal("unknown class produced empty text")
	}
}

func TestRendererNonCrash(t *testing.T) {
	rd, r := NewRenderer(0), xrand.New(4)
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		desc, res := rd.NonCrashWith(r, "m9")
		if !strings.Contains(desc, "m9") {
			t.Errorf("non-crash description lacks host: %q", desc)
		}
		if res == "" {
			t.Error("empty resolution")
		}
		seen[desc] = true
	}
	if len(seen) < 5 {
		t.Errorf("non-crash text not varied: %d distinct of 50", len(seen))
	}
}

func TestRendererDeterminism(t *testing.T) {
	a, ra0 := NewRenderer(0.2), xrand.New(7)
	b, rb0 := NewRenderer(0.2), xrand.New(7)
	for i := 0; i < 100; i++ {
		da, ra := a.CrashWith(ra0, model.ClassSoftware, "x")
		db, rb := b.CrashWith(rb0, model.ClassSoftware, "x")
		if da != db || ra != rb {
			t.Fatal("renderer not deterministic")
		}
	}
}

func mkTicket(id string, server model.MachineID, at time.Time, crash bool) model.Ticket {
	return model.Ticket{
		ID: id, ServerID: server, Opened: at, Closed: at.Add(time.Hour), IsCrash: crash,
	}
}

func TestStoreAppendAssignsIDs(t *testing.T) {
	s := NewStore()
	got := s.Append(model.Ticket{ServerID: "m", Opened: t0, Closed: t0.Add(time.Hour)})
	if got.ID == "" {
		t.Fatal("no ID assigned")
	}
	kept := s.Append(model.Ticket{ID: "CUSTOM", ServerID: "m", Opened: t0, Closed: t0.Add(time.Hour)})
	if kept.ID != "CUSTOM" {
		t.Fatalf("custom ID overwritten: %q", kept.ID)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreQueries(t *testing.T) {
	s := NewStore()
	s.Append(mkTicket("c", "m1", t0.Add(72*time.Hour), true))
	s.Append(mkTicket("a", "m1", t0.Add(24*time.Hour), false))
	s.Append(mkTicket("b", "m2", t0.Add(48*time.Hour), true))
	s.Append(mkTicket("late", "m2", obs.End.Add(time.Hour), true))

	all := s.All()
	if len(all) != 4 {
		t.Fatalf("All = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Opened.Before(all[i-1].Opened) {
			t.Fatal("All not sorted")
		}
	}
	if got := s.InWindow(obs); len(got) != 3 {
		t.Fatalf("InWindow = %d", len(got))
	}
}

func TestStoreAllReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Append(mkTicket("a", "m", t0.Add(time.Hour), false))
	out := s.All()
	out[0].ServerID = "mutated"
	if s.All()[0].ServerID == "mutated" {
		t.Fatal("All exposed internal state")
	}
}

// TestStoreConcurrentUse exercises the store under parallel writers and
// readers; run with -race to verify the locking.
func TestStoreConcurrentUse(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			id := model.MachineID(string(rune('a' + w)))
			for i := 0; i < 200; i++ {
				s.Append(mkTicket("", id, t0.Add(time.Duration(i)*time.Hour), i%7 == 0))
				s.InWindow(obs)
				s.Len()
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if s.Len() != 8*200 {
		t.Fatalf("Len = %d", s.Len())
	}
	seen := make(map[string]bool)
	for _, tk := range s.All() {
		if tk.ID == "" || seen[tk.ID] {
			t.Fatal("duplicate or empty ticket ID under concurrency")
		}
		seen[tk.ID] = true
	}
}
