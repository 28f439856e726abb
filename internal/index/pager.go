package index

import (
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
// The runs live in one byteLRU (lru.go), which also gives the per-run
// singleflight: concurrent fetches of the same run wait for the first
// one's read rather than read it again. Decoded runs are immutable, so a
// reader keeps a consistent view of a run the pager drops meanwhile.
type Pager struct {
	budget int64 // resident budget in bytes; always > 0
	runs   *byteLRU[runKey, decodedRun]

	pageIns   atomic.Uint64
	evictions atomic.Uint64
	diskReads atomic.Uint64

	// metrics, when set, mirrors the pager's activity into the shared
	// obs families (nil until the serving tier installs them).
	metrics atomic.Pointer[PagingMetrics]
}

// runKey names one run of one shard.
type runKey struct {
	sh *Shard
	i  int
}

// decodedRun is one decoded run: a posting list or a node list.
type decodedRun struct {
	postings []Posting
	nodes    []xmldoc.NodeRef
}

// NewPager returns a pager enforcing the given resident budget in bytes.
// A budget <= 0 returns nil (paging disabled).
func NewPager(budget int64) *Pager {
	if budget <= 0 {
		return nil
	}
	p := &Pager{budget: budget}
	p.runs = newByteLRU[runKey, decodedRun](budget, p.resized)
	return p
}

// Budget returns the configured resident budget in bytes.
func (p *Pager) Budget() int64 { return p.budget }

// SetMetrics installs the shared metrics handles (idempotent; nil
// allowed). The resident-bytes gauge is reconciled with the runs already
// resident at attach time, and on replacement the old set gives those
// bytes back so a re-adopted engine is not counted twice.
func (p *Pager) SetMetrics(m *PagingMetrics) {
	p.runs.withUsed(func(used int64) {
		old := p.metrics.Swap(m)
		if old == m {
			return
		}
		if old != nil {
			old.ResidentBytes.Add(-float64(used))
		}
		if m != nil {
			m.ResidentBytes.Add(float64(used))
		}
	})
}

// resized mirrors a change of the resident bytes into the gauge; the run
// cache calls it under its lock.
func (p *Pager) resized(delta int64) {
	if m := p.metrics.Load(); m != nil {
		m.ResidentBytes.Add(float64(delta))
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
	r, g, err := p.runs.get(runKey{sh, i}, func() (decodedRun, int64, error) {
		ps, refs, err := p.fetch(sh, i)
		if err != nil {
			return decodedRun{}, 0, err
		}
		return decodedRun{ps, refs}, runCost(ps, refs), nil
	})
	p.evicted(g.dropped)
	return r.postings, r.nodes, err
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
	st.ResidentBytes, st.Resident = p.runs.stats()
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
