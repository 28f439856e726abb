package index

import (
	"sync"
	"sync/atomic"
	"time"

	"seda/internal/obs"
)

// Pager applies a byte budget to the decoded shards of one engine that
// have a section in a snapshot file: shards page in on first touch
// (Shard.hot) and, when the total exact encoded size of tracked resident
// shards exceeds the budget, the least-recently-touched ones are evicted
// back to their sections. A shard without a section is never tracked: the
// pager could not evict it, and holding it would keep every tail shard an
// ingest replaces reachable forever. The cost unit is each shard's exact
// encoded payload size — deterministic across runs, unlike heap
// measurement.
//
// Locking: the pager's own mutex only guards the accounting (the tracked
// set and the running total); evictions happen after it is released, and
// each shard transition takes only that shard's mutex. No path holds one
// shard's lock while taking another's, and the query fast path takes no
// lock at all. The accounting is intentionally tolerant of races — a
// shard admitted twice concurrently is charged once, and a shard paged in
// right after being chosen as a victim simply gets re-admitted by its
// next toucher — because correctness never depends on it: decoded shard
// state is immutable and readers snapshot it before eviction can drop it.
type Pager struct {
	budget int64 // resident budget in bytes; always > 0

	// clock is the logical LRU clock; every touch stamps the shard with
	// the next tick.
	clock atomic.Int64

	pageIns   atomic.Uint64
	evictions atomic.Uint64
	diskReads atomic.Uint64

	// metrics, when set, mirrors the pager's activity into the shared
	// obs families (nil until the serving tier installs them).
	metrics atomic.Pointer[PagingMetrics]

	mu      sync.Mutex
	tracked map[*Shard]struct{} // guarded by mu
	used    int64               // guarded by mu: sum of tracked shards' exact bytes
}

// NewPager returns a pager enforcing the given resident budget in bytes.
// A budget <= 0 returns nil (paging disabled).
func NewPager(budget int64) *Pager {
	if budget <= 0 {
		return nil
	}
	return &Pager{
		budget:  budget,
		tracked: make(map[*Shard]struct{}),
	}
}

// Budget returns the configured resident budget in bytes.
func (p *Pager) Budget() int64 { return p.budget }

// SetMetrics installs the shared metrics handles (idempotent; nil
// allowed). The resident-bytes gauge is reconciled with the shards
// already resident at attach time — a built engine starts fully resident
// without a single metered page-in, and on replacement the old set gives
// those bytes back so a re-adopted engine is not counted twice.
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

// touch stamps sh with the next LRU clock tick.
func (p *Pager) touch(sh *Shard) { sh.lastUse.Store(p.clock.Add(1)) }

// diskRead records one backing-section read (page-in or save splice) and
// its read+CRC-verify latency.
func (p *Pager) diskRead(dur time.Duration) {
	p.diskReads.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.DiskReads.Inc()
		m.DiskReadSeconds.ObserveDuration(dur)
	}
}

// admit records sh as resident, charging its exact encoded size against
// the budget, and evicts the coldest other shards until the budget holds
// again. pagedIn marks an admit caused by an actual cold-shard decode
// (as opposed to registering an already-resident shard). A shard without
// a backing ref is not admitted: it stays resident, outside the budget.
func (p *Pager) admit(sh *Shard, pagedIn bool, dur time.Duration) {
	if sh.backing.Load() == nil {
		return
	}
	p.touch(sh)
	if pagedIn {
		p.pageIns.Add(1)
		if m := p.metrics.Load(); m != nil {
			m.PageIns.Inc()
			m.PageInSeconds.ObserveDuration(dur)
		}
	}
	cost := sh.exactBytes()
	var victims []*Shard
	p.mu.Lock()
	if _, ok := p.tracked[sh]; !ok {
		p.tracked[sh] = struct{}{}
		p.used += cost
		if m := p.metrics.Load(); m != nil {
			m.ResidentBytes.Add(float64(cost))
		}
	}
	for p.used > p.budget {
		v := p.coldestLocked(sh)
		if v == nil {
			break // only the just-touched shard remains; keep it resident
		}
		vc := v.exactBytes()
		delete(p.tracked, v)
		p.used -= vc
		if m := p.metrics.Load(); m != nil {
			m.ResidentBytes.Add(-float64(vc))
		}
		victims = append(victims, v)
	}
	p.mu.Unlock()
	for _, v := range victims {
		if v.tryEvict() {
			p.evictions.Add(1)
			if m := p.metrics.Load(); m != nil {
				m.Evictions.Inc()
			}
		}
	}
}

// coldestLocked returns the tracked shard with the smallest LRU stamp,
// excluding keep. Shard counts are bounded (the serving tier caps them at
// 64), so a linear scan beats maintaining a heap under churn.
func (p *Pager) coldestLocked(keep *Shard) *Shard {
	var victim *Shard
	var min int64
	for sh := range p.tracked {
		if sh == keep {
			continue
		}
		if u := sh.lastUse.Load(); victim == nil || u < min {
			victim, min = sh, u
		}
	}
	return victim
}

// PagerStats is a point-in-time snapshot of a pager's accounting for
// /debug/stats and the bench/ layer metrics.
type PagerStats struct {
	Budget        int64
	ResidentBytes int64
	Resident      int // tracked (resident, snapshot-backed) shard count
	PageIns       uint64
	Evictions     uint64
	// DiskReads counts backing-section reads from the snapshot file.
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
	st.Resident = len(p.tracked)
	p.mu.Unlock()
	return st
}

// AttachPager installs p on every shard and admits the resident ones that
// have a backing ref, which may immediately evict down to the budget.
// Shards without one stay resident and untracked until BindBacking gives
// them a section. A nil pager is a no-op.
func (ix *Index) AttachPager(p *Pager) {
	if p == nil {
		return
	}
	for _, sh := range ix.shards {
		sh.pager.Store(p)
	}
	for _, sh := range ix.shards {
		if sh.data.Load() != nil {
			p.admit(sh, false, 0)
		}
	}
}

// PagingMetrics holds the obs handles for shard paging, shared by every
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
			"Cold shards decoded on first touch (including re-touch after eviction)."),
		Evictions: reg.NewCounter("seda_paging_evictions_total",
			"Decoded shards evicted back to their snapshot sections by the resident budget."),
		ResidentBytes: reg.NewGauge("seda_paging_resident_bytes",
			"Exact encoded bytes of shard payloads whose decoded form is resident, summed over paged engines."),
		PageInSeconds: reg.NewHistogram("seda_paging_pagein_seconds",
			"Shard page-in (lazy block decode) latency in seconds.", nil),
		DiskReads: reg.NewCounter("seda_paging_disk_reads_total",
			"Shard sections re-read from the snapshot backing store on page-in or save."),
		DiskReadSeconds: reg.NewHistogram("seda_paging_disk_read_seconds",
			"Backing-section read plus CRC re-verify latency in seconds.", nil),
	}
}
