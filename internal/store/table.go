package store

import (
	"math/bits"
	"slices"

	"humancomp/internal/task"
)

// pageBits sets the page size: a page holds the tasks of 1<<pageBits
// consecutive IDs, so a table of IDs the allocator issued densely spends
// one page-map entry per 1024 tasks and nothing a task beyond its record
// and its bit.
const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page holds the tasks whose IDs share id >> pageBits, by value, at slot
// id & pageMask: 1024 64-B records, exactly 64 KiB, a whole number of the
// runtime's 8-KiB pages, so the runtime serves it as a large object with
// no header and no tail. Which slots hold a task is kept beside it, in its
// pageRef: a bitmap inside would make it 64 KiB and 128 B, served as 72 KiB.
type page [pageSize]task.Task

// pageRef is a page and which of its slots hold a task: bit i%64 of
// held[i/64] for slot i. Presence cannot be read off the record, since
// every record, the zero Task under ID 0 included, is one a store can hold.
type pageRef struct {
	held  [pageSize / 64]uint64
	tasks *page
}

// next returns the first slot at or after i that holds a task, or pageSize.
func (p *pageRef) next(i int) int {
	for ; i < pageSize; i = (i | 63) + 1 {
		if b := p.held[i/64] >> (i % 64); b != 0 {
			return i + bits.TrailingZeros64(b)
		}
	}
	return pageSize
}

// table is the store's ID → task index, and where the tasks live: it hands
// out the address of a task's slot, which is the task for as long as the
// table holds it. Pages are keyed by id >> pageBits — an arithmetic shift,
// so every int64 ID has a page, negative ones included — and made only
// when a task arrives for them, so a lone ID costs one 64-KiB page. The
// keys are also kept in a sorted list, which makes every whole-table read
// one walk in ID order, and the per-status counts are kept as tasks come
// and change, which makes a count a lookup. A table is guarded by its
// store's lock; its zero value is empty.
type table struct {
	pages  map[int64]*pageRef
	keys   []int64 // the keys of pages, ascending
	n      int
	counts [1 << 8]int // indexed by the status byte
}

func (tb *table) get(id task.ID) *task.Task {
	p, i := tb.pages[int64(id)>>pageBits], id&pageMask
	if p == nil || p.held[i/64]&(1<<(i%64)) == 0 {
		return nil
	}
	return &p.tasks[i]
}

// put copies t into the slot of its ID, over any task held there, and
// returns the stored task.
func (tb *table) put(t *task.Task) *task.Task {
	k := int64(t.ID) >> pageBits
	p := tb.pages[k]
	if p == nil {
		if tb.pages == nil {
			tb.pages = make(map[int64]*pageRef)
		}
		p = &pageRef{tasks: new(page)}
		tb.pages[k] = p
		i, _ := slices.BinarySearch(tb.keys, k)
		tb.keys = slices.Insert(tb.keys, i, k)
	}
	i := t.ID & pageMask
	slot := &p.tasks[i]
	if bit := uint64(1) << (i % 64); p.held[i/64]&bit == 0 {
		p.held[i/64] |= bit
		tb.n++
	} else {
		tb.counts[slot.Status]--
	}
	*slot = *t
	tb.counts[t.Status]++
	return slot
}

// moved records that a stored task's status went from was to is.
func (tb *table) moved(was, is task.Status) {
	tb.counts[was]--
	tb.counts[is]++
}

// count is how many stored tasks have status st, or all of them for
// AnyStatus.
func (tb *table) count(st task.Status) int {
	if st == AnyStatus {
		return tb.n
	}
	return tb.counts[st]
}

// walk calls fn with each stored task that has status st (or any, for
// AnyStatus) and an ID of at least from, in ascending ID order, until fn
// returns false.
func (tb *table) walk(from task.ID, st task.Status, fn func(t *task.Task) bool) {
	k := int64(from) >> pageBits
	i, _ := slices.BinarySearch(tb.keys, k)
	for _, key := range tb.keys[i:] {
		p, slot := tb.pages[key], 0
		if key == k {
			slot = int(from & pageMask)
		}
		for slot = p.next(slot); slot < pageSize; slot = p.next(slot + 1) {
			if t := &p.tasks[slot]; (st == AnyStatus || t.Status == st) && !fn(t) {
				return
			}
		}
	}
}
