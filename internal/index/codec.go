package index

import (
	"fmt"
	"math"
	"sort"

	"seda/internal/dewey"
	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Binary codec (engine snapshots). The index is the most expensive derived
// layer to rebuild, so each shard persists both logical indexes in full:
// node-index postings with positions, the Figure-8 context index, document
// frequencies, and the per-path node lists. One payload per shard
// (SEDASNAP's "index.<n>" sections), written as shardCodecVersion.
//
// A shard payload splits into a summary block (vocabulary with document
// frequencies and posting counts, context index, path roster — always
// decoded) and a lazy block (delta-compressed postings and node refs —
// decodable on demand). Doc ids are gap-coded from the shard's lo, Dewey
// ids share a prefix with the previous ref of the same document, positions
// are gap-coded within a posting, and path ids are gap-coded within each
// sorted roster. Map-backed structures are written in sorted key order, and
// every encoding is canonical: re-encoding a decoded shard reproduces the
// stored bytes, which is what lets SaveEngine splice a cold shard's lazy
// block verbatim and stay byte-deterministic.

// shardCodecVersion is the shard payload's leading version int. Any other
// value is refused; the snapshot is rebuilt from source.
const shardCodecVersion = 2

// EncodeShard appends shard s to w. A cold shard's lazy block is spliced
// verbatim — canonical encodings make the splice byte-identical to a
// re-encode of the decoded state, so SaveEngine stays deterministic
// whatever the residency. The error is a disk-backed re-read failure on a
// fully evicted shard.
func (ix *Index) EncodeShard(w *snapcodec.Writer, s int) error {
	return ix.shards[s].encodeInto(w)
}

// encodeInto appends the shard's compressed payload: version and range,
// the summary block, then the lazy block (re-encoded from the decoded
// state when resident, spliced from the stored in-heap bytes or the
// backing section when cold). The error is a disk re-read failure on a
// fully evicted disk-backed shard.
func (sh *Shard) encodeInto(w *snapcodec.Writer) error {
	w.Int(shardCodecVersion)
	w.Int(sh.lo)
	w.Int(sh.hi)

	// Vocabulary, front-coded: sorted terms share most of their leading
	// bytes with their predecessor, so each entry is a prefix length plus
	// the new suffix. Doc freq and posting count pair into one varint —
	// bit 0 flags the rare term with more postings than documents, whose
	// surplus follows as its own varint.
	w.Int(len(sh.terms))
	prevTerm := ""
	for i, term := range sh.terms {
		plen := sharedStrPrefixLen(prevTerm, term)
		w.Int(plen)
		w.String(term[plen:])
		prevTerm = term
		df := sh.termDocFreq[term]
		np := sh.termPostings[i]
		if np > df {
			w.Uvarint(uint64(df-1)<<1 | 1)
			w.Int(np - df - 1)
		} else {
			w.Uvarint(uint64(df-1) << 1)
		}
	}

	encodeContextIndex(w, sh.terms, sh.pathTerms)

	w.Int(len(sh.pathIDs))
	prev := uint64(0)
	for i, id := range sh.pathIDs {
		w.Uvarint(uint64(id) - prev) // first id absolute, then strict gaps
		prev = uint64(id)
		w.Int(sh.pathCounts[i])
	}

	if d := sh.data.Load(); d != nil {
		sh.encodeLazy(w, d)
		return nil
	}
	if rp := sh.raw.Load(); rp != nil {
		w.Raw(*rp)
		return nil
	}
	// Fully evicted: re-read the section from the snapshot file and splice
	// its lazy block — the codec is canonical, so the section's lazy tail
	// IS the shard's current lazy encoding.
	if ref := sh.backing.Load(); ref != nil {
		payload, err := ref.payload()
		if err != nil {
			return fmt.Errorf("index: encoding shard [%d,%d): %w", sh.lo, sh.hi, err)
		}
		ll := int(sh.lazyLen.Load())
		if ll < 0 || ll > len(payload) {
			return fmt.Errorf("index: encoding shard [%d,%d): lazy block length %d outside payload of %d bytes", sh.lo, sh.hi, ll, len(payload))
		}
		w.Raw(payload[len(payload)-ll:])
		return nil
	}
	panic(fmt.Sprintf("index: shard [%d,%d) has no decoded state, encoded payload, or backing ref", sh.lo, sh.hi))
}

// exactBytes returns the exact encoded size of the shard's full payload —
// the deterministic cost unit for /debug/stats and the resident-budget
// accounting. Computed at most once and cached; decoding a shard seeds it
// with the section payload length.
func (sh *Shard) exactBytes() int64 {
	if b := sh.encBytes.Load(); b != 0 {
		return b
	}
	var w snapcodec.Writer
	if err := sh.encodeInto(&w); err != nil {
		// Unreachable: encBytes is always cached before a shard can become
		// disk-only (BindBacking validates against it), and the in-memory
		// encode paths cannot fail.
		panic(fmt.Sprintf("index: sizing shard [%d,%d): %v", sh.lo, sh.hi, err))
	}
	b := int64(w.Len())
	sh.encBytes.Store(b)
	return b
}

// lazyLength returns the shard's encoded lazy-block length, computing and
// caching it if needed (from the in-heap payload, or by encoding the
// decoded state). BindBacking calls this before dropping the heap payload
// so disk page-in can always slice the lazy block out of the section.
func (sh *Shard) lazyLength() int64 {
	if ll := sh.lazyLen.Load(); ll != 0 {
		return ll
	}
	var ll int64
	if rp := sh.raw.Load(); rp != nil {
		ll = int64(len(*rp))
	} else if d := sh.data.Load(); d != nil {
		var w snapcodec.Writer
		sh.encodeLazy(&w, d)
		ll = int64(w.Len())
	} else {
		// Unreachable for the same reason as exactBytes: a shard goes
		// disk-only via BindBacking, which computes this first.
		panic(fmt.Sprintf("index: shard [%d,%d): lazy length unknown with no in-memory tier", sh.lo, sh.hi))
	}
	sh.lazyLen.Store(ll)
	return ll
}

// tryEvict drops the shard's decoded state. With a backing ref this is a
// TRUE eviction: the in-heap encoded payload is dropped too, and the next
// touch re-reads the section from the snapshot file. Without one the
// lazy block is re-encoded into raw first (built or extended in memory,
// nothing on disk yet). Readers already holding the decoded pointer keep
// a consistent view — the maps are immutable — so eviction never blocks
// or corrupts in-flight queries. Reports whether a transition happened.
func (sh *Shard) tryEvict() bool {
	sh.mu.Lock()
	d := sh.data.Load()
	if d == nil {
		sh.mu.Unlock()
		return false
	}
	var rawChanged bool
	if sh.backing.Load() != nil {
		rawChanged = sh.raw.Swap(nil) != nil
	} else if sh.raw.Load() == nil {
		var w snapcodec.Writer
		sh.encodeLazy(&w, d)
		b := w.Bytes()
		sh.lazyLen.Store(int64(len(b)))
		sh.raw.Store(&b)
		rawChanged = true
	}
	sh.data.Store(nil)
	sh.mu.Unlock()
	if rawChanged {
		if p := sh.pager.Load(); p != nil {
			p.noteRaw(sh)
		}
	}
	return true
}

// encodeLazy appends the delta-compressed lazy block: per term (in
// vocabulary order) its postings, then per path (in roster order) its
// node refs.
func (sh *Shard) encodeLazy(w *snapcodec.Writer, d *shardData) {
	for _, term := range sh.terms {
		ps := d.postings[term]
		prevDoc := sh.lo
		prevPath := int64(0)
		var prevID dewey.ID
		for i := range ps {
			p := &ps[i]
			prevDoc, prevID = encodeRefDelta(w, p.Ref, prevDoc, prevID)
			// Adjacent postings of a term usually sit at the same path, so
			// the zig-zag path delta is usually the single byte 0.
			w.Svarint(int64(p.Path) - prevPath)
			prevPath = int64(p.Path)
			// Nearly every posting has exactly one position, so that case
			// folds position into the count varint: odd = position<<1|1,
			// even = count<<1 followed by sorted position deltas.
			if len(p.Positions) == 1 {
				w.Uvarint(uint64(p.Positions[0])<<1 | 1)
			} else {
				w.Uvarint(uint64(len(p.Positions)) << 1)
				prevPos := int32(0)
				for _, pos := range p.Positions {
					w.Int(int(pos - prevPos)) // positions are sorted
					prevPos = pos
				}
			}
		}
	}
	for _, id := range sh.pathIDs {
		refs := d.pathNodes[id]
		prevDoc := sh.lo
		var prevID dewey.ID
		for _, ref := range refs {
			prevDoc, prevID = encodeRefDelta(w, ref, prevDoc, prevID)
		}
	}
}

// Ref lead-byte layout: the doc-id gap, shared-prefix length, and suffix
// length of a delta-coded node ref are almost always tiny (gap 0–2,
// depths under 7), so all three pack into one byte. Field value
// refEscGap/refEscLen means "escaped": the remainder arrives as a uvarint
// after the lead byte, biased by the escape threshold so the encoding
// stays canonical (exactly one encoding per ref).
const (
	refEscGap = 3 // 2-bit doc gap field: 0–2 direct, 3 = escape
	refEscLen = 7 // 3-bit plen/slen fields: 0–6 direct, 7 = escape
)

// encodeRefDelta writes one node ref as a packed lead byte (doc gap,
// Dewey prefix/suffix lengths), escape varints for the rare large values,
// and the suffix components. It returns the new (prevDoc, prevID). Lists
// are (doc, Dewey)-ordered so gaps are non-negative. The Dewey prefix
// deliberately carries across document boundaries: sibling ids at one
// path differ in a middle component, but their heads agree often enough
// that sharing beats re-sending the full id.
func encodeRefDelta(w *snapcodec.Writer, ref xmldoc.NodeRef, prevDoc int, prevID dewey.ID) (int, dewey.ID) {
	doc := int(ref.Doc)
	gap := doc - prevDoc
	plen := sharedPrefixLen(prevID, ref.Dewey)
	slen := len(ref.Dewey) - plen
	g, p, s := gap, plen, slen
	if g > refEscGap {
		g = refEscGap
	}
	if p > refEscLen {
		p = refEscLen
	}
	if s > refEscLen {
		s = refEscLen
	}
	w.Byte(byte(g<<6 | p<<3 | s))
	if g == refEscGap {
		w.Int(gap - refEscGap)
	}
	if p == refEscLen {
		w.Int(plen - refEscLen)
	}
	if s == refEscLen {
		w.Int(slen - refEscLen)
	}
	for _, c := range ref.Dewey[plen:] {
		w.Uvarint(uint64(c))
	}
	return doc, ref.Dewey
}

func sharedPrefixLen(a, b dewey.ID) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func sharedStrPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// DecodeShard reads one shard, binding it to col and materializing it
// fully. Shards decode independently (and hence in parallel); FromShards
// reassembles and validates the full index.
func DecodeShard(r *snapcodec.Reader, col *store.Collection) (*Shard, error) {
	return decodeShard(r, col, false)
}

// DecodeShardPaged reads only a shard's summary block, validates the lazy
// block without materializing it, and keeps a private copy of the encoded
// bytes for demand paging: the first query touch decodes them (Shard.hot).
func DecodeShardPaged(r *snapcodec.Reader, col *store.Collection) (*Shard, error) {
	return decodeShard(r, col, true)
}

// decodeShard reads a shard payload: the summary block is decoded and
// validated eagerly; the lazy block is either materialized (resident load)
// or parse-validated and retained as bytes (paged load). Either way a
// malformed payload is rejected here, never at page-in time.
//
//seda:constructor
func decodeShard(r *snapcodec.Reader, col *store.Collection, paged bool) (*Shard, error) {
	total := r.Remaining()
	if v := r.Int(); r.Err() == nil && v != shardCodecVersion {
		return nil, fmt.Errorf("index: unsupported shard codec version %d (rebuild from source)", v)
	}
	lo, hi := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("index: decode shard: %w", err)
	}
	if lo > hi || hi > col.NumDocs() {
		return nil, fmt.Errorf("index: decode shard: range [%d, %d) outside collection of %d docs", lo, hi, col.NumDocs())
	}
	sh := &Shard{
		lo: lo, hi: hi,
		termDocFreq: make(map[string]int),
		pathTerms:   make(map[string]map[pathdict.PathID]int),
	}

	numTerms := r.Count(3)
	sh.terms = make([]string, 0, numTerms)
	sh.termPostings = make([]int, 0, numTerms)
	prevTerm := ""
	for i := 0; i < numTerms; i++ {
		plen := r.Int()
		suffix := r.String()
		u := r.Uvarint()
		df := int(u>>1) + 1
		np := df
		if u&1 == 1 {
			np = df + 1 + r.Int()
		}
		if r.Err() != nil {
			break
		}
		if np > r.Remaining()/3+1 { // postings live in the lazy block; >= 3 bytes each
			return nil, fmt.Errorf("index: decode: %d postings exceed remaining %d bytes", np, r.Remaining())
		}
		if plen > len(prevTerm) {
			return nil, fmt.Errorf("index: decode: term prefix %d longer than previous term", plen)
		}
		term := prevTerm[:plen] + suffix
		if len(sh.terms) > 0 && prevTerm >= term {
			return nil, fmt.Errorf("index: decode: term list not sorted")
		}
		prevTerm = term
		if df < 1 || df > hi-lo {
			return nil, fmt.Errorf("index: decode: term %q doc freq %d outside [1, %d]", term, df, hi-lo)
		}
		sh.terms = append(sh.terms, term)
		sh.termPostings = append(sh.termPostings, np)
		sh.nPostings += np
		sh.termDocFreq[term] = df
	}

	var err error
	numCtx := r.Count(2)
	var prevCtx string
	vi := 0
	for i := 0; i < numCtx; i++ {
		var term string
		if sel := r.Uvarint(); sel == 0 {
			plen := r.Int()
			suffix := r.String()
			if r.Err() != nil {
				break
			}
			if plen > len(prevCtx) {
				return nil, fmt.Errorf("index: decode: context term prefix %d longer than previous term", plen)
			}
			term = prevCtx[:plen] + suffix
		} else {
			if sel > uint64(len(sh.terms)-vi) {
				if r.Err() != nil {
					break
				}
				return nil, fmt.Errorf("index: decode: context term selector %d past vocabulary end", sel)
			}
			vi += int(sel)
			term = sh.terms[vi-1]
		}
		numPaths := r.Count(2)
		if r.Err() != nil {
			break
		}
		if i > 0 && prevCtx >= term {
			return nil, fmt.Errorf("index: decode: context term list not sorted")
		}
		prevCtx = term
		m := make(map[pathdict.PathID]int, numPaths)
		pid := uint64(0)
		for j := 0; j < numPaths; j++ {
			pid, err = nextPathID(r, pid, j == 0)
			if err != nil {
				return nil, fmt.Errorf("index: decode context term %q: %w", term, err)
			}
			m[pathdict.PathID(pid)] = r.Int()
		}
		sh.pathTerms[term] = m
	}

	numPaths := r.Count(2)
	sh.pathIDs = make([]pathdict.PathID, 0, numPaths)
	sh.pathCounts = make([]int, 0, numPaths)
	pid := uint64(0)
	for i := 0; i < numPaths; i++ {
		pid, err = nextPathID(r, pid, i == 0)
		if err != nil {
			return nil, fmt.Errorf("index: decode path roster: %w", err)
		}
		n := r.Count(1) // refs live in the lazy block; >= 1 byte each
		sh.pathIDs = append(sh.pathIDs, pathdict.PathID(pid))
		sh.pathCounts = append(sh.pathCounts, n)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}

	lazy := r.Tail()
	r.Skip(len(lazy))
	if paged {
		if err := sh.validateLazy(lazy); err != nil {
			return nil, err
		}
		// Own the block: aliasing the container buffer would pin the whole
		// snapshot in memory for the lifetime of one cold shard.
		blk := append([]byte(nil), lazy...)
		sh.raw.Store(&blk)
	} else {
		d, err := sh.decodeLazy(lazy)
		if err != nil {
			return nil, err
		}
		sh.data.Store(d)
	}
	sh.lazyLen.Store(int64(len(lazy)))
	sh.encBytes.Store(int64(total))
	return sh, nil
}

// nextPathID advances a gap-coded path-id sequence, enforcing strict
// monotonicity and the id range.
func nextPathID(r *snapcodec.Reader, prev uint64, first bool) (uint64, error) {
	gap := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if !first && gap == 0 {
		return 0, fmt.Errorf("path ids not strictly increasing")
	}
	if gap > math.MaxInt32 || prev+gap > math.MaxInt32 {
		return 0, fmt.Errorf("path id %d out of range", prev+gap)
	}
	return prev + gap, nil
}

// decodeLazy materializes the shard's lazy block into decoded posting
// lists and per-path node lists.
func (sh *Shard) decodeLazy(raw []byte) (*shardData, error) {
	return sh.walkLazy(raw, true)
}

// validateLazy parses the lazy block without materializing it, so a paged
// load rejects corrupt payloads up front and page-in can trust the bytes.
func (sh *Shard) validateLazy(raw []byte) error {
	_, err := sh.walkLazy(raw, false)
	return err
}

// walkLazy decodes the lazy block against the shard's summary counts,
// building the decoded state when build is set and only validating
// otherwise. One shared walk keeps validation and materialization from
// drifting. The block must be consumed exactly.
func (sh *Shard) walkLazy(raw []byte, build bool) (*shardData, error) {
	r := snapcodec.NewReader(raw)
	var d *shardData
	if build {
		d = &shardData{
			postings:  make(map[string][]Posting, len(sh.terms)),
			pathNodes: make(map[pathdict.PathID][]xmldoc.NodeRef, len(sh.pathIDs)),
		}
	}
	for i, term := range sh.terms {
		np := sh.termPostings[i]
		var ps []Posting
		if build {
			ps = make([]Posting, 0, np)
		}
		prevDoc := sh.lo
		prevPath := int64(0)
		var prevID dewey.ID
		for j := 0; j < np; j++ {
			doc, id, err := sh.decodeRefDelta(r, prevDoc, prevID, build)
			if err != nil {
				return nil, fmt.Errorf("index: decode term %q: %w", term, err)
			}
			prevDoc, prevID = doc, id
			pv := prevPath + r.Svarint()
			if r.Err() == nil && (pv < 0 || pv > math.MaxInt32) {
				return nil, fmt.Errorf("index: decode term %q: path id %d out of range", term, pv)
			}
			prevPath = pv
			path := pathdict.PathID(pv)
			var positions []int32
			if u := r.Uvarint(); u&1 == 1 {
				pos := u >> 1
				if pos > math.MaxInt32 {
					return nil, fmt.Errorf("index: decode term %q: position %d out of range", term, pos)
				}
				if build {
					positions = []int32{int32(pos)}
				}
			} else {
				numPos := int(u >> 1)
				if r.Err() == nil && numPos > r.Remaining() { // each delta is at least one byte
					return nil, fmt.Errorf("index: decode term %q: %d positions exceed remaining %d bytes", term, numPos, r.Remaining())
				}
				if build {
					positions = make([]int32, 0, numPos)
				}
				pos := int32(0)
				for k := 0; k < numPos; k++ {
					pos += int32(r.Int())
					if build {
						positions = append(positions, pos)
					}
				}
			}
			if build {
				ps = append(ps, Posting{
					Ref:       xmldoc.NodeRef{Doc: xmldoc.DocID(doc), Dewey: id},
					Path:      path,
					Positions: positions,
				})
			}
		}
		if build {
			d.postings[term] = ps
		}
	}
	for i, id := range sh.pathIDs {
		n := sh.pathCounts[i]
		var refs []xmldoc.NodeRef
		if build {
			refs = make([]xmldoc.NodeRef, 0, n)
		}
		prevDoc := sh.lo
		var prevID dewey.ID
		for j := 0; j < n; j++ {
			doc, did, err := sh.decodeRefDelta(r, prevDoc, prevID, build)
			if err != nil {
				return nil, fmt.Errorf("index: decode path %d: %w", id, err)
			}
			prevDoc, prevID = doc, did
			if build {
				refs = append(refs, xmldoc.NodeRef{Doc: xmldoc.DocID(doc), Dewey: did})
			}
		}
		if build {
			d.pathNodes[id] = refs
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after shard payload", snapcodec.ErrCorrupt, r.Remaining())
	}
	return d, nil
}

// decodeRefDelta reads one delta-coded node ref (see encodeRefDelta). The
// returned Dewey id is freshly allocated when build is set and may reuse
// prevID's storage otherwise — validation never retains refs.
func (sh *Shard) decodeRefDelta(r *snapcodec.Reader, prevDoc int, prevID dewey.ID, build bool) (int, dewey.ID, error) {
	lead := r.Byte()
	gap := int(lead >> 6)
	plen := int(lead>>3) & refEscLen
	slen := int(lead) & refEscLen
	if gap == refEscGap {
		gap += r.Int()
	}
	if plen == refEscLen {
		plen += r.Int()
	}
	if slen == refEscLen {
		slen += r.Int()
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	doc := prevDoc + gap
	if doc >= sh.hi {
		return 0, nil, fmt.Errorf("node ref names document %d outside range [%d, %d)", doc, sh.lo, sh.hi)
	}
	if plen > len(prevID) {
		return 0, nil, fmt.Errorf("dewey prefix %d longer than previous id (%d components)", plen, len(prevID))
	}
	if slen > r.Remaining() { // each suffix component is at least one byte
		return 0, nil, fmt.Errorf("dewey suffix %d exceeds remaining %d bytes", slen, r.Remaining())
	}
	var id dewey.ID
	if build {
		id = make(dewey.ID, plen, plen+slen)
		copy(id, prevID[:plen])
	} else {
		id = prevID[:plen]
	}
	for k := 0; k < slen; k++ {
		c := r.Uvarint()
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		if c == 0 || c > math.MaxUint32 {
			return 0, nil, fmt.Errorf("dewey component %d out of range", c)
		}
		id = append(id, uint32(c))
	}
	if len(id) == 0 {
		return 0, nil, fmt.Errorf("empty dewey id")
	}
	return doc, id, nil
}

// FromShards assembles an Index over col from decoded shards, which must
// form a contiguous document-order partition of the collection.
func FromShards(col *store.Collection, shards []*Shard) (*Index, error) {
	if err := validateShards(col, shards); err != nil {
		return nil, err
	}
	return finishIndex(col, shards), nil
}

// encodeContextIndex writes the context index with gap-coded path ids
// and its term strings deduplicated against the node vocabulary: the
// context vocabulary is a superset of vocab (it adds tag names), and both
// are sorted, so most context terms encode as a one-byte reference to the
// next matching vocab entry (selector gap+1) instead of repeating the
// string. Terms absent from vocab take selector 0 followed by a
// front-coded literal.
func encodeContextIndex(w *snapcodec.Writer, vocab []string, pathTerms map[string]map[pathdict.PathID]int) {
	ctxTerms := make([]string, 0, len(pathTerms))
	for t := range pathTerms {
		ctxTerms = append(ctxTerms, t)
	}
	sort.Strings(ctxTerms)
	w.Int(len(ctxTerms))
	vi := 0
	prevCtx := ""
	for _, term := range ctxTerms {
		j := vi + sort.SearchStrings(vocab[vi:], term)
		if j < len(vocab) && vocab[j] == term {
			w.Uvarint(uint64(j-vi) + 1)
			vi = j + 1
		} else {
			w.Uvarint(0)
			plen := sharedStrPrefixLen(prevCtx, term)
			w.Int(plen)
			w.String(term[plen:])
		}
		prevCtx = term
		paths := pathTerms[term]
		ids := sortedPathIDs(paths)
		w.Int(len(ids))
		prev := uint64(0)
		for _, id := range ids {
			w.Uvarint(uint64(id) - prev) // first id absolute, then strict gaps
			prev = uint64(id)
			w.Int(paths[id])
		}
	}
}

func sortedPathIDs(m map[pathdict.PathID]int) []pathdict.PathID {
	ids := make([]pathdict.PathID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
