package index

import (
	"fmt"
	"math"
	"os"
	"time"

	"seda/internal/snapcodec"
)

// Disk-backed shard residency: a loaded or saved engine's snapshot file
// doubles as the paging backstore. A shard carries a BackingRef — the
// open file plus its section's offset, length, and roster CRC — and a
// shard with one, under a pager, holds no decoded state of its own: a
// fetch pread()s just the runs it needs (one term's postings, one path's
// node list), verifies each against the checksum its run table recorded,
// and decodes it into the pager's run cache. A shard without a section
// (built or extended in memory, not yet saved) stays resident and
// outside the pager.
//
// Refs are never invalidated in place. A save re-binds every shard to the
// new file wholesale (the codec is canonical, so the new section bytes
// equal the current shard encoding); the old Backing stays valid for any
// generation still holding it — POSIX keeps the unlinked inode readable
// through the open descriptor — and os.File's finalizer closes it when
// the last ref is collected.

// Backing is one open snapshot file serving as a paging backstore, shared
// by every shard loaded from it. Immutable once opened; reads are
// positional (pread), so no mutable file offset exists and concurrent
// run fetches need no lock here.
//
//seda:immutable
type Backing struct {
	f *os.File
}

// NewBacking makes f the paging backstore of the shards bound to it. The
// caller hands over f — the same handle the sections were read or scanned
// through, so every ref names the inode that was decoded — and it is
// closed by os.File's own finalizer.
//
//seda:constructor
func NewBacking(f *os.File) *Backing { return &Backing{f: f} }

// read returns a fresh buffer holding the size bytes at off.
func (b *Backing) read(off int64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("%w: reading section [%d, +%d) from %s: %v", snapcodec.ErrCorrupt, off, size, b.f.Name(), err)
	}
	return buf, nil
}

// BackingRef points one shard at its encoded section inside a Backing.
// Immutable; shards swap the whole ref atomically (Shard.backing).
//
//seda:immutable
type BackingRef struct {
	b    *Backing
	off  int64
	size int
	crc  uint32
}

// NewBackingRef describes the section at [off, off+size) with the given
// stored CRC-32C (as reported by snapcodec.ReadContainer/ScanSections).
//
//seda:constructor
func NewBackingRef(b *Backing, off int64, size int, crc uint32) *BackingRef {
	return &BackingRef{b: b, off: off, size: size, crc: crc}
}

// payload reads the section and re-verifies its CRC against the roster
// checksum captured at load time. The file is outside the process's
// control, so every failure — short read, flipped bytes, truncation — is
// an error classified under snapcodec.ErrCorrupt, never a panic.
func (ref *BackingRef) payload() ([]byte, error) {
	p, err := ref.b.read(ref.off, ref.size)
	if err != nil {
		return nil, err
	}
	if got := snapcodec.Checksum(p); got != ref.crc {
		return nil, fmt.Errorf("%w: shard section checksum mismatch (stored %08x, computed %08x) in %s", snapcodec.ErrCorrupt, ref.crc, got, ref.b.f.Name())
	}
	return p, nil
}

// BindBacking points shard s at its encoded section in the snapshot file.
// The section size must equal the shard's exact encoded size — the codec
// is canonical, so a loaded-or-saved shard's bytes ARE the section bytes;
// a mismatch means the caller bound the wrong section (or a stale file)
// and is rejected. A shard that holds its whole decoded state gets its
// run table from the encoding of that state, and under a pager it drops
// the state — counted as one eviction — and is served run by run from
// here on: this is how a built engine comes under its budget at its first
// save.
func (ix *Index) BindBacking(s int, ref *BackingRef) error {
	sh := ix.shards[s]
	if int64(ref.size) != sh.exactBytes() {
		return fmt.Errorf("index: shard [%d,%d): section size %d != exact encoded size %d", sh.lo, sh.hi, ref.size, sh.exactBytes())
	}
	if sh.runs.Load() == nil {
		// Never bound, hence resident: measure the runs on its encoding.
		var w snapcodec.Writer
		off := sh.encodeLazy(&w, sh.data.Load())
		if uint64(w.Len()) > math.MaxUint32 {
			return fmt.Errorf("index: shard [%d,%d): lazy block of %d bytes too large to page", sh.lo, sh.hi, w.Len())
		}
		sh.runs.Store(newRunTable(w.Bytes(), off))
	}
	sh.backing.Store(ref)
	if p := sh.pager.Load(); p != nil && sh.data.Swap(nil) != nil {
		p.evicted(1)
	}
	return nil
}

// section reads the shard's whole section payload, CRC-verified, for the
// two paths that need every run of a shard served by runs: a save splicing
// its lazy block, and a segment merge decoding it.
func (sh *Shard) section() ([]byte, error) {
	start := time.Now()
	payload, err := sh.backing.Load().payload()
	if err != nil {
		return nil, fmt.Errorf("index: reading shard [%d,%d): %w", sh.lo, sh.hi, err)
	}
	if p := sh.pager.Load(); p != nil {
		p.diskRead(time.Since(start))
	}
	return payload[len(payload)-int(sh.runs.Load().lazyLen()):], nil
}

// runBytes reads run i (see runTable) from the shard's section and
// verifies it against the checksum the run table recorded when the run
// was last known good. The file is outside the process's control, so a
// short read or a mismatch is an error classified under
// snapcodec.ErrCorrupt, never a panic.
func (sh *Shard) runBytes(i int) ([]byte, error) {
	ref, rt := sh.backing.Load(), sh.runs.Load()
	start := ref.off + int64(ref.size) - int64(rt.lazyLen()) + int64(rt.off[i])
	raw, err := ref.b.read(start, int(rt.off[i+1]-rt.off[i]))
	if err != nil {
		return nil, fmt.Errorf("index: reading run %d of shard [%d,%d): %w", i, sh.lo, sh.hi, err)
	}
	if got := snapcodec.Checksum(raw); got != rt.crc[i] {
		return nil, fmt.Errorf("%w: run %d of shard [%d,%d) checksum mismatch (stored %08x, computed %08x) in %s", snapcodec.ErrCorrupt, i, sh.lo, sh.hi, rt.crc[i], got, ref.b.f.Name())
	}
	return raw, nil
}
