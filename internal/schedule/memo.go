package schedule

import (
	"sync"

	"pruner/internal/ir"
)

// Memo caches lowered programs by schedule fingerprint, so one tuning
// round lowers (and, through Lowered's feature cache, featurizes) each
// candidate exactly once across draft scoring, cost-model verification
// and in-process measurement — instead of once per use.
// It is safe for concurrent use by pool workers; Lower is a pure function
// of (task, schedule), so memoization cannot change any computed value.
//
// A Memo is scoped to one task: the tuner creates a fresh one per
// measurement round, which both bounds memory and keeps cache entries
// from outliving the round's candidate pool.
type Memo struct {
	mu     sync.Mutex
	task   *ir.Task
	m      map[string]*Lowered
	misses int
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{m: make(map[string]*Lowered)}
}

// Lower returns the memoized lowering of (t, s), computing and caching it
// on first sight. A nil memo degrades to plain Lower, so call sites never
// special-case "no memo". When two workers race on the same fingerprint
// the first stored instance wins, keeping feature caches shared.
func (m *Memo) Lower(t *ir.Task, s *Schedule) *Lowered {
	if m == nil {
		return Lower(t, s)
	}
	fp := s.Fingerprint()
	m.mu.Lock()
	// The cache keys by schedule fingerprint alone, so one memo must only
	// ever see one task; fail loudly on misuse rather than serve another
	// task's lowering.
	if m.task == nil {
		m.task = t
	} else if m.task != t {
		m.mu.Unlock()
		panic("schedule: Memo shared across tasks (it is scoped to one task per round)")
	}
	lw := m.m[fp]
	m.mu.Unlock()
	if lw != nil {
		return lw
	}
	lw = Lower(t, s)
	m.mu.Lock()
	if prev := m.m[fp]; prev != nil {
		lw = prev
	} else {
		m.m[fp] = lw
		m.misses++
	}
	m.mu.Unlock()
	return lw
}

// Misses reports how many distinct programs this memo actually lowered
// (cache misses that stored an entry). The training-engine tests use it
// to pin "each record is lowered and featurized once per session".
func (m *Memo) Misses() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// Len reports the number of cached programs (tests, introspection).
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
