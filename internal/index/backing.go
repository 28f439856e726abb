package index

import (
	"fmt"
	"os"
	"time"

	"seda/internal/snapcodec"
)

// Disk-backed shard residency: a loaded or saved engine's snapshot file
// doubles as the paging backstore. A shard carries a BackingRef — the
// open file plus its section's offset, length, and roster CRC — and only
// a shard with one is ever evicted: eviction drops the decoded state, and
// page-in pread()s the section back and re-verifies its CRC before
// decoding. A shard without a section (built or extended in memory, not
// yet saved) stays resident and outside the pager.
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
// page-ins need no lock here.
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

// BindBacking points shard s at its encoded section in the snapshot file:
// from here on the shard is evictable, and page-in re-reads the section.
// A resident shard joins its pager here — this is how a built engine
// comes under its budget at its first save. The section size must equal
// the shard's exact encoded size — the codec is canonical, so a
// loaded-or-saved shard's bytes ARE the section bytes; a mismatch means
// the caller bound the wrong section (or a stale file) and is rejected.
func (ix *Index) BindBacking(s int, ref *BackingRef) error {
	sh := ix.shards[s]
	if int64(ref.size) != sh.exactBytes() {
		return fmt.Errorf("index: shard [%d,%d): section size %d != exact encoded size %d", sh.lo, sh.hi, ref.size, sh.exactBytes())
	}
	// Disk page-in slices the lazy block out of the section by its length.
	// A built shard measures it here, from its decoded state; a cold shard
	// is already bound and had it recorded when it was decoded.
	if d := sh.data.Load(); d != nil && sh.lazyLen.Load() == 0 {
		var w snapcodec.Writer
		sh.encodeLazy(&w, d)
		sh.lazyLen.Store(int64(w.Len()))
	}
	sh.backing.Store(ref)
	if p := sh.pager.Load(); p != nil && sh.data.Load() != nil {
		p.admit(sh, false, 0)
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
	// The bytes may have changed since load (CRC collisions are possible
	// against a non-cryptographic checksum), so a decode failure is an
	// error, not an invariant violation.
	d, err := sh.decodeLazy(payload[len(payload)-ll:])
	if err != nil {
		return nil, fmt.Errorf("index: paging in shard [%d,%d): %w", sh.lo, sh.hi, err)
	}
	return d, nil
}
