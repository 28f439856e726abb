package index

import (
	"fmt"
	"os"
	"time"

	"seda/internal/snapcodec"
)

// Disk-backed shard residency: a loaded engine's snapshot file doubles as
// the paging backstore. Each shard may carry a BackingRef — the open file
// plus its section's offset, length, and roster CRC — so eviction drops
// BOTH the decoded state and the in-heap encoded payload, and page-in
// pread()s the section back and re-verifies its CRC before decoding.
// Built-not-yet-saved shards have no ref and degrade to in-heap encoded
// eviction.
//
// Refs are never invalidated in place. A save re-binds every shard to the
// new file wholesale (the codec is canonical, so the new section bytes
// equal the current shard encoding); the old Backing stays valid for any
// generation still holding it — POSIX keeps the unlinked inode readable
// through the open descriptor — and os.File's finalizer closes it when
// the last ref is collected.

// Residency-tier names reported by ShardStats.Backing and /debug/stats.
const (
	// TierHeap: the shard's encoded payload (when evicted) lives on the
	// Go heap — the PR 8 behavior, and the only tier for built engines.
	TierHeap = "heap"
	// TierDisk: the encoded payload lives in the snapshot file; page-in
	// pread()s the section back.
	TierDisk = "disk"
)

// Backing is one open snapshot file serving as a paging backstore, shared
// by every shard loaded from it. Immutable once opened; reads are
// positional (pread), so no mutable file offset exists and concurrent
// page-ins need no lock here.
//
//seda:immutable
type Backing struct {
	path string
	f    *os.File
}

// OpenBacking opens the snapshot at path as a paging backstore. The
// handle is closed by os.File's own finalizer.
//
//seda:constructor
func OpenBacking(path string) (*Backing, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: opening backing store: %w", err)
	}
	return &Backing{path: path, f: f}, nil
}

// read returns a fresh buffer holding the size bytes at off.
func (b *Backing) read(off int64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("%w: reading section [%d, +%d) from %s: %v", snapcodec.ErrCorrupt, off, size, b.path, err)
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
		return nil, fmt.Errorf("%w: shard section checksum mismatch (stored %08x, computed %08x) in %s", snapcodec.ErrCorrupt, ref.crc, got, ref.b.path)
	}
	return p, nil
}

// Size returns the section's length in bytes.
func (ref *BackingRef) Size() int { return ref.size }

// BindBacking points shard s at its encoded section in the snapshot file:
// from here on, eviction drops the in-heap encoded payload too, and
// page-in re-reads the section. The section size must equal the shard's
// exact encoded size — the codec is canonical, so a loaded-or-saved
// shard's bytes ARE the section bytes; a mismatch means the caller bound
// the wrong section (or a stale file) and is rejected before the heap
// payload is dropped.
func (ix *Index) BindBacking(s int, ref *BackingRef) error {
	sh := ix.shards[s]
	if int64(ref.size) != sh.exactBytes() {
		return fmt.Errorf("index: shard [%d,%d): section size %d != exact encoded size %d", sh.lo, sh.hi, ref.size, sh.exactBytes())
	}
	// Computing the lazy length may encode from the in-memory tiers, so it
	// must happen before the heap payload drops.
	sh.lazyLength()
	sh.mu.Lock()
	sh.backing.Store(ref)
	rp := sh.raw.Swap(nil) // the disk section supersedes the heap copy
	sh.mu.Unlock()
	if p := sh.pager.Load(); p != nil && rp != nil {
		p.noteRaw(sh)
	}
	return nil
}

// pageInBacked re-reads the shard's section from the snapshot file,
// re-verifies its CRC, and decodes the lazy block. Callers hold sh.mu.
func (sh *Shard) pageInBacked(ref *BackingRef) (*shardData, error) {
	readStart := time.Now()
	payload, err := ref.payload()
	if err != nil {
		return nil, fmt.Errorf("index: paging in shard [%d,%d): %w", sh.lo, sh.hi, err)
	}
	// The disk-read observation covers the read plus the CRC re-verify,
	// not the decode — the decode cost is already in pagein_seconds.
	if p := sh.pager.Load(); p != nil {
		p.diskRead(time.Since(readStart))
	}
	ll := int(sh.lazyLen.Load())
	if ll < 0 || ll > len(payload) {
		return nil, fmt.Errorf("index: paging in shard [%d,%d): lazy block length %d outside payload of %d bytes", sh.lo, sh.hi, ll, len(payload))
	}
	// Unlike the in-heap path, the bytes may have changed since load (CRC
	// collisions are possible against a non-cryptographic checksum), so a
	// decode failure is an error, not an invariant violation.
	d, err := sh.decodeLazy(payload[len(payload)-ll:])
	if err != nil {
		return nil, fmt.Errorf("index: paging in shard [%d,%d): %w", sh.lo, sh.hi, err)
	}
	return d, nil
}
