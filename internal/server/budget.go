package server

import (
	"errors"
	"sync/atomic"
)

// ErrCPUBudgetExhausted is returned by AcquireRequired when a request asks
// for engine parallelism while every extra CPU slot is claimed. Handlers
// map it to 429 Too Many Requests so heavy callers back off instead of
// silently degrading (or blocking) a large batch to a single core.
var ErrCPUBudgetExhausted = errors.New("server: cpu budget exhausted, retry later")

// CPUBudget is the shared, lock-free budget of extra CPU slots available
// to parallel queries. Every running query implicitly owns one slot (the
// pool worker executing it); a query that wants engine parallelism p tries
// to acquire p-1 extra slots and gracefully degrades to whatever is free,
// so the service's total expansion concurrency never exceeds the worker
// count plus the budget, no matter what individual requests ask for.
type CPUBudget struct {
	slots int64
	avail atomic.Int64
}

// NewCPUBudget returns a budget of n extra slots (n < 0 is treated as 0,
// i.e. every query runs serially on its worker).
func NewCPUBudget(n int) *CPUBudget {
	if n < 0 {
		n = 0
	}
	b := &CPUBudget{slots: int64(n)}
	b.avail.Store(int64(n))
	return b
}

// Acquire claims up to n extra slots without blocking and returns how many
// were granted (possibly 0). The caller must Release exactly that many.
func (b *CPUBudget) Acquire(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		cur := b.avail.Load()
		if cur <= 0 {
			return 0
		}
		take := int64(n)
		if take > cur {
			take = cur
		}
		if b.avail.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

// AcquireRequired claims up to n extra slots like Acquire, but fails with
// ErrCPUBudgetExhausted instead of granting zero when the budget HAS slots
// and they are all in use. A zero-slot budget (serial-only server) still
// grants 0 without error — waiting would never help there, so callers
// degrade to their one implicit worker slot. Never blocks.
func (b *CPUBudget) AcquireRequired(n int) (int, error) {
	if n <= 0 || b.slots == 0 {
		return 0, nil
	}
	granted := b.Acquire(n)
	if granted == 0 {
		return 0, ErrCPUBudgetExhausted
	}
	return granted, nil
}

// Release returns n slots claimed by Acquire.
func (b *CPUBudget) Release(n int) {
	if n > 0 {
		b.avail.Add(int64(n))
	}
}

// Slots reports the budget's size.
func (b *CPUBudget) Slots() int { return int(b.slots) }

// InUse reports how many extra slots are currently claimed.
func (b *CPUBudget) InUse() int { return int(b.slots - b.avail.Load()) }
