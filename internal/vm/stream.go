package vm

import "aurora/internal/trace"

// Stream adapts a running machine to a trace stream, so the timing
// simulator replays execution without materialising the whole trace. It is
// the one VM-to-trace adapter: every exact run, scheduled or not, through
// the root API or the experiment runner, draws its records from it.
type Stream struct {
	m      *Machine
	budget uint64
	n      uint64
	err    error
}

// NewStream returns a stream over m that ends at program exit, at an
// execution fault (reported by Err), or after budget records (0 means
// unbounded).
func NewStream(m *Machine, budget uint64) *Stream {
	return &Stream{m: m, budget: budget}
}

func (s *Stream) more() bool {
	return s.err == nil && !s.m.Halted() && (s.budget == 0 || s.n < s.budget)
}

// Next implements trace.Stream.
func (s *Stream) Next() (trace.Record, bool) {
	if !s.more() {
		return trace.Record{}, false
	}
	rec, err := s.m.Step()
	if err != nil {
		// A fault or clean halt ends the stream; faults are reported.
		// (Step marks the machine halted on faults too, so the clean end
		// must be identified by the error, not by Halted().)
		if !IsHalt(err) {
			s.err = err
		}
		return trace.Record{}, false
	}
	s.n++
	return rec, true
}

// NextBatch implements trace.BatchStream: it fills buf with up to len(buf)
// records in one call, keeping the VM's step loop on concrete types and
// amortising the stream interface dispatch across the batch.
func (s *Stream) NextBatch(buf []trace.Record) int {
	n := 0
	for n < len(buf) && s.more() {
		rec, err := s.m.Step()
		if err != nil {
			if !IsHalt(err) {
				s.err = err
			}
			break
		}
		s.n++
		buf[n] = rec
		n++
	}
	return n
}

// Err reports the execution fault that ended the stream, nil after a clean
// halt or an exhausted budget.
func (s *Stream) Err() error { return s.err }
