package index

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"seda/internal/obs"
	"seda/internal/xmldoc"
)

// Pager applies a byte budget to the decoded runs of the shards of one
// engine that are served from a snapshot file. A run is one term's
// posting list or one path's node list inside one shard (see runTable):
// a fetch that misses reads only that run's bytes from the section,
// verifies its checksum, decodes it and publishes it here; when the
// decoded footprint of the resident runs exceeds the budget, the
// least-recently-used ones are dropped. A shard that still holds its
// whole decoded state (built or extended in memory and not yet saved)
// never comes through the pager.
//
// The cost unit is a run's decoded heap footprint (runCost), computed
// from its contents, so the accounting is deterministic across runs and
// the budget bounds the heap it names.
//
// Locking: one mutex guards the run map, the LRU list and the totals. A
// miss inserts a pending entry and reads and decodes outside the lock;
// concurrent fetches of the same run wait on that entry rather than
// read it again (per-run singleflight). Decoded runs are immutable, so a
// reader keeps a consistent view of a run the pager drops meanwhile.
type Pager struct {
	budget int64 // resident budget in bytes; always > 0

	pageIns   atomic.Uint64
	evictions atomic.Uint64
	diskReads atomic.Uint64

	// metrics, when set, mirrors the pager's activity into the shared
	// obs families (nil until the serving tier installs them).
	metrics atomic.Pointer[PagingMetrics]

	mu       sync.Mutex
	entries  map[runKey]*runEntry // guarded by mu: resident and pending runs
	lru      runEntry             // guarded by mu: sentinel; lru.next is the most recently used run
	used     int64                // guarded by mu: decoded bytes of resident runs
	resident int                  // guarded by mu: resident run count
}

// runKey names one run of one shard.
type runKey struct {
	sh *Shard
	i  int
}

// runEntry is one run in the pager: pending while its first fetcher
// reads it (ready open, not linked), then resident (linked into the LRU
// list) until dropped. The decoded fields are written once, before ready
// is closed, and never again.
type runEntry struct {
	key        runKey
	prev, next *runEntry // LRU links, nil while pending or once dropped
	ready      chan struct{}
	postings   []Posting
	nodes      []xmldoc.NodeRef
	cost       int64
	err        error
}

// NewPager returns a pager enforcing the given resident budget in bytes.
// A budget <= 0 returns nil (paging disabled).
//
//seda:nolock: p is freshly constructed here and unshared until returned
func NewPager(budget int64) *Pager {
	if budget <= 0 {
		return nil
	}
	p := &Pager{budget: budget, entries: make(map[runKey]*runEntry)}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// Budget returns the configured resident budget in bytes.
func (p *Pager) Budget() int64 { return p.budget }

// SetMetrics installs the shared metrics handles (idempotent; nil
// allowed). The resident-bytes gauge is reconciled with the runs already
// resident at attach time, and on replacement the old set gives those
// bytes back so a re-adopted engine is not counted twice.
func (p *Pager) SetMetrics(m *PagingMetrics) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.metrics.Swap(m)
	if old == m {
		return
	}
	if old != nil {
		old.ResidentBytes.Add(-float64(p.used))
	}
	if m != nil {
		m.ResidentBytes.Add(float64(p.used))
	}
}

// diskRead records one read from the snapshot file (a run, or a whole
// section) and its read+CRC-verify latency.
func (p *Pager) diskRead(dur time.Duration) {
	p.diskReads.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.DiskReads.Inc()
		m.DiskReadSeconds.ObserveDuration(dur)
	}
}

// evicted counts n runs (or whole decoded shards) dropped.
func (p *Pager) evicted(n int) {
	if n == 0 {
		return
	}
	p.evictions.Add(uint64(n))
	if m := p.metrics.Load(); m != nil {
		m.Evictions.Add(uint64(n))
	}
}

// run returns run i of sh, decoded: from the cache when resident, else
// read, verified and decoded once however many goroutines ask for it at
// the same time. A failed fetch caches nothing; the next one retries.
func (p *Pager) run(sh *Shard, i int) ([]Posting, []xmldoc.NodeRef, error) {
	k := runKey{sh, i}
	p.mu.Lock()
	if e, ok := p.entries[k]; ok {
		if e.next != nil { // resident
			p.unlinkLocked(e)
			p.pushFrontLocked(e)
			ps, refs := e.postings, e.nodes
			p.mu.Unlock()
			return ps, refs, nil
		}
		ready := e.ready
		p.mu.Unlock()
		<-ready
		return e.postings, e.nodes, e.err
	}
	e := &runEntry{key: k, ready: make(chan struct{})}
	p.entries[k] = e
	p.mu.Unlock()

	ps, refs, err := p.fetch(sh, i)
	var cost int64
	if err == nil {
		cost = runCost(ps, refs)
	}

	p.mu.Lock()
	if err != nil {
		delete(p.entries, k)
		e.err = err
		p.mu.Unlock()
		close(e.ready)
		return nil, nil, err
	}
	e.postings, e.nodes, e.cost = ps, refs, cost
	p.pushFrontLocked(e)
	p.used += e.cost
	p.resident++
	freed, dropped := e.cost, 0
	for p.used > p.budget && p.lru.prev != e {
		v := p.lru.prev
		p.unlinkLocked(v)
		delete(p.entries, v.key)
		p.used -= v.cost
		p.resident--
		freed -= v.cost
		dropped++
	}
	if m := p.metrics.Load(); m != nil {
		m.ResidentBytes.Add(float64(freed))
	}
	p.mu.Unlock()
	close(e.ready)
	p.evicted(dropped)
	return ps, refs, nil
}

// fetch reads, verifies and decodes run i of sh, metering the disk read
// and the whole page-in.
func (p *Pager) fetch(sh *Shard, i int) ([]Posting, []xmldoc.NodeRef, error) {
	start := time.Now()
	raw, err := sh.runBytes(i)
	if err != nil {
		return nil, nil, err
	}
	p.diskRead(time.Since(start))
	ps, refs, err := sh.decodeRun(i, raw)
	if err != nil {
		return nil, nil, err
	}
	p.pageIns.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.PageIns.Inc()
		m.PageInSeconds.ObserveDuration(time.Since(start))
	}
	return ps, refs, nil
}

// pushFrontLocked links e as the most recently used run.
func (p *Pager) pushFrontLocked(e *runEntry) {
	e.prev, e.next = &p.lru, p.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlinkLocked removes e from the LRU list.
func (p *Pager) unlinkLocked(e *runEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// runCost is a decoded run's heap footprint: its slice backing arrays and
// the Dewey ids and position lists they point to.
func runCost(ps []Posting, refs []xmldoc.NodeRef) int64 {
	n := int64(unsafe.Sizeof(Posting{}))*int64(cap(ps)) + int64(unsafe.Sizeof(xmldoc.NodeRef{}))*int64(cap(refs))
	for i := range ps {
		n += 4 * int64(cap(ps[i].Ref.Dewey)+cap(ps[i].Positions))
	}
	for i := range refs {
		n += 4 * int64(cap(refs[i].Dewey))
	}
	return n
}

// PagerStats is a point-in-time snapshot of a pager's accounting for
// /debug/stats and the bench/ layer metrics. Every count is in runs.
type PagerStats struct {
	Budget int64
	// ResidentBytes is the decoded footprint of the resident runs.
	ResidentBytes int64
	// Resident is the number of decoded runs held.
	Resident int
	// PageIns counts runs read and decoded on a cache miss.
	PageIns uint64
	// Evictions counts runs dropped by the budget, plus whole decoded
	// shards dropped when a save binds them to their sections.
	Evictions uint64
	// DiskReads counts reads from the snapshot file: one per run fetched,
	// one per whole section re-read (a save splicing, or an ingest
	// extending, a shard served by runs).
	DiskReads uint64
}

// Stats snapshots the pager's counters and accounting.
func (p *Pager) Stats() PagerStats {
	st := PagerStats{
		Budget:    p.budget,
		PageIns:   p.pageIns.Load(),
		Evictions: p.evictions.Load(),
		DiskReads: p.diskReads.Load(),
	}
	p.mu.Lock()
	st.ResidentBytes = p.used
	st.Resident = p.resident
	p.mu.Unlock()
	return st
}

// AttachPager installs p on every shard. Shards served from a snapshot
// section cache their runs in it from then on; shards holding their
// whole decoded state stay as they are until BindBacking gives them a
// section. A nil pager is a no-op.
func (ix *Index) AttachPager(p *Pager) {
	if p == nil {
		return
	}
	for _, sh := range ix.shards {
		sh.pager.Store(p)
	}
}

// PagingMetrics holds the obs handles for run paging, shared by every
// paged engine a process serves (the gauge composes by deltas). A nil
// *PagingMetrics disables instrumentation at zero cost.
//
//seda:nilgated
type PagingMetrics struct {
	PageIns         *obs.Counter
	Evictions       *obs.Counter
	ResidentBytes   *obs.Gauge
	PageInSeconds   *obs.Histogram
	DiskReads       *obs.Counter
	DiskReadSeconds *obs.Histogram
}

// NewPagingMetrics registers the paging families on reg.
func NewPagingMetrics(reg *obs.Registry) *PagingMetrics {
	return &PagingMetrics{
		PageIns: reg.NewCounter("seda_paging_pageins_total",
			"Posting and node-list runs read and decoded on a cache miss (including re-fetch after eviction)."),
		Evictions: reg.NewCounter("seda_paging_evictions_total",
			"Decoded runs dropped by the resident budget, plus whole decoded shards dropped when bound to their snapshot sections."),
		ResidentBytes: reg.NewGauge("seda_paging_resident_bytes",
			"Decoded heap footprint of the resident runs, summed over paged engines."),
		PageInSeconds: reg.NewHistogram("seda_paging_pagein_seconds",
			"Run page-in (read, checksum verify and decode) latency in seconds.", nil),
		DiskReads: reg.NewCounter("seda_paging_disk_reads_total",
			"Reads from the snapshot backing store: one per run fetched, one per whole shard section a save or an ingest re-reads."),
		DiskReadSeconds: reg.NewHistogram("seda_paging_disk_read_seconds",
			"Snapshot read plus CRC verify latency in seconds.", nil),
	}
}
