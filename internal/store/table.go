package store

import (
	"slices"

	"humancomp/internal/task"
)

// pageBits sets the page size: a page holds the tasks of 1<<pageBits
// consecutive IDs, so a table of IDs the allocator issued densely spends
// 8 bytes a task on its index and one page-map entry per 1024 tasks.
const (
	pageBits = 10
	pageMask = 1<<pageBits - 1
)

// page holds the tasks whose IDs share id >> pageBits, at slot id & pageMask.
type page [1 << pageBits]*task.Task

// table is the store's ID → task index. Pages are keyed by id >> pageBits
// — an arithmetic shift, so every int64 ID has a page, negative ones
// included — and made only when a task arrives for them, so a sparse ID
// costs one page and no ID costs more. The keys are also kept in a sorted
// list, which makes every whole-table read one walk in ID order, and the
// per-status counts are kept as tasks come and change, which makes a count
// a lookup. A table is guarded by its store's lock; its zero value is
// empty.
type table struct {
	pages  map[int64]*page
	keys   []int64 // the keys of pages, ascending
	n      int
	counts map[task.Status]int
}

func (tb *table) get(id task.ID) *task.Task {
	p := tb.pages[int64(id)>>pageBits]
	if p == nil {
		return nil
	}
	return p[id&pageMask]
}

// put stores t under its ID, in place of any task held there.
func (tb *table) put(t *task.Task) {
	k := int64(t.ID) >> pageBits
	p := tb.pages[k]
	if p == nil {
		if tb.pages == nil {
			tb.pages, tb.counts = make(map[int64]*page), make(map[task.Status]int)
		}
		p = new(page)
		tb.pages[k] = p
		i, _ := slices.BinarySearch(tb.keys, k)
		tb.keys = slices.Insert(tb.keys, i, k)
	}
	slot := &p[t.ID&pageMask]
	if *slot == nil {
		tb.n++
	} else {
		tb.counts[(*slot).Status]--
	}
	*slot = t
	tb.counts[t.Status]++
}

// moved records that a stored task's status went from was to is.
func (tb *table) moved(was, is task.Status) {
	if was != is {
		tb.counts[was]--
		tb.counts[is]++
	}
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
		p := tb.pages[key][:]
		if key == k {
			p = p[from&pageMask:]
		}
		for _, t := range p {
			if t != nil && (st == AnyStatus || t.Status == st) && !fn(t) {
				return
			}
		}
	}
}
