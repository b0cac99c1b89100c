package ticketdb

import (
	"sort"
	"strconv"
	"sync"

	"failscope/internal/model"
)

// Store is an in-memory ticket database with the query surface the
// collection pipeline needs: everything, or one time window.
// It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	tickets []model.Ticket
	nextID  int
}

// NewStore returns an empty ticket store.
func NewStore() *Store { return &Store{} }

// Append adds a ticket, assigning it a sequential ID if it has none, and
// returns the stored ticket.
func (s *Store) Append(t model.Ticket) model.Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.ID == "" {
		s.nextID++
		t.ID = formatTicketID(s.nextID)
	}
	s.tickets = append(s.tickets, t)
	return t
}

// Reserve pre-grows the store for n more tickets, so a bulk Append loop
// lands in one backing array instead of doubling through several.
func (s *Store) Reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if free := cap(s.tickets) - len(s.tickets); free < n {
		grown := make([]model.Ticket, len(s.tickets), len(s.tickets)+n)
		copy(grown, s.tickets)
		s.tickets = grown
	}
}

// formatTicketID renders "T%07d" with a single retained allocation — the
// assemble stage stamps every generated ticket through here, so the
// fmt.Sprintf boxing (~2 extra allocs each) is worth avoiding.
func formatTicketID(n int) string {
	var digBuf [20]byte
	digits := strconv.AppendInt(digBuf[:0], int64(n), 10)
	var out [28]byte
	b := append(out[:0], 'T')
	for pad := 7 - len(digits); pad > 0; pad-- {
		b = append(b, '0')
	}
	b = append(b, digits...)
	return string(b)
}

// Len returns the number of stored tickets.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tickets)
}

// All returns every ticket, time-sorted. The slice is a copy.
func (s *Store) All() []model.Ticket {
	s.mu.RLock()
	out := append([]model.Ticket(nil), s.tickets...)
	s.mu.RUnlock()
	sortByOpen(out)
	return out
}

// InWindow returns tickets opened within the window, time-sorted.
func (s *Store) InWindow(w model.Window) []model.Ticket {
	s.mu.RLock()
	var out []model.Ticket
	for _, t := range s.tickets {
		if w.Contains(t.Opened) {
			out = append(out, t)
		}
	}
	s.mu.RUnlock()
	sortByOpen(out)
	return out
}

func sortByOpen(ts []model.Ticket) {
	sort.Slice(ts, func(i, j int) bool {
		if !ts[i].Opened.Equal(ts[j].Opened) {
			return ts[i].Opened.Before(ts[j].Opened)
		}
		return ts[i].ID < ts[j].ID
	})
}
