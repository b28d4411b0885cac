package coherence

import (
	"cmp"
	"slices"

	"ccnic/internal/mem"
)

// dirTable is the system's line index: an open-addressed hash table (linear
// probing, backward-shift deletion) from a line address to the line's
// record. It holds only live records — lines the directory tracks or some
// cache holds — so its memory and first-touch work scale with resident
// lines, bounded by total cache capacity, rather than with every address
// span a workload ever touched.
//
// Records are separate heap objects the table points at, so a *dirEntry
// stays valid while the table grows: callers hold one across insertMiss →
// evictLRU → gc. Removed records go to a free list that keeps their sharers
// capacity, so steady-state line churn allocates nothing.
type dirTable struct {
	slots []dirSlot // power-of-two length; line 0 marks an empty slot
	shift uint      // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	n     int       // records in the table
	free  []*dirEntry
}

// dirSlot keeps the key beside the record pointer, so a probe compares
// lines without dereferencing records.
type dirSlot struct {
	line mem.Addr
	d    *dirEntry
}

// dirMinBits sizes the table on first insert: 1<<dirMinBits slots.
const dirMinBits = 4

// slotOf returns the home slot of a line. Multiplicative hashing spreads
// both ring-like runs of consecutive lines and scattered key-value lines.
//
//ccnic:noalloc
func (t *dirTable) slotOf(line mem.Addr) int {
	return int(uint64(line/mem.LineSize) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the line's record, or nil.
//
//ccnic:noalloc
func (t *dirTable) find(line mem.Addr) *dirEntry {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.slotOf(line); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.line == line {
			return sl.d
		}
		if sl.line == 0 {
			return nil
		}
	}
}

// insert adds a record for a line the caller has just found absent, reusing
// a retired record when one is free. The record comes back with owner and
// sharers empty, no cache copies and present unset; pendingUntil is stale
// until the caller claims it.
//
//ccnic:noalloc
func (t *dirTable) insert(line mem.Addr) *dirEntry {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	var d *dirEntry
	if k := len(t.free); k > 0 {
		d = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		d = new(dirEntry) //ccnic:alloc-ok record warm-up: one per concurrently live line, recycled afterwards
	}
	d.line = line
	t.place(dirSlot{line, d})
	t.n++
	return d
}

// place stores a slot at the end of its probe run.
//
//ccnic:noalloc
func (t *dirTable) place(sl dirSlot) {
	mask := len(t.slots) - 1
	i := t.slotOf(sl.line)
	for t.slots[i].line != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = sl
}

// grow doubles the table, keeping the load factor at or below one half.
//
//ccnic:noalloc
func (t *dirTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size, t.shift = 1<<dirMinBits, 64-dirMinBits
	} else {
		t.shift--
	}
	t.slots = make([]dirSlot, size) //ccnic:alloc-ok index growth: doubles with the live line count, amortized
	for _, sl := range old {
		if sl.line != 0 {
			t.place(sl)
		}
	}
}

// remove retires a record that is in the table: it leaves the index and
// goes to the free list. Later members of its probe run shift back into the
// hole, so lookups never need tombstones.
//
//ccnic:noalloc
func (t *dirTable) remove(d *dirEntry) {
	mask := len(t.slots) - 1
	i := t.slotOf(d.line)
	for t.slots[i].d != d {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].line != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: it is at least as far from home as from i.
		if (j-t.slotOf(t.slots[j].line))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = dirSlot{}
	t.n--
	t.free = append(t.free, d)
}

// forEach visits every record in address order (validation paths only; the
// hot path never iterates the directory).
func (t *dirTable) forEach(fn func(d *dirEntry)) {
	recs := make([]*dirEntry, 0, t.n)
	for _, sl := range t.slots {
		if sl.line != 0 {
			recs = append(recs, sl.d)
		}
	}
	slices.SortFunc(recs, func(a, b *dirEntry) int { return cmp.Compare(a.line, b.line) })
	for _, d := range recs {
		fn(d)
	}
}
