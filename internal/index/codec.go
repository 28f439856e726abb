package index

import (
	"fmt"
	"math"
	"slices"
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

// EncodeShard appends shard s to w. The lazy block of a shard served by
// runs is spliced verbatim from its section — canonical encodings make
// the splice byte-identical to a re-encode of the decoded state, so
// SaveEngine stays deterministic whatever the residency. The error is a
// failure to re-read that section.
func (ix *Index) EncodeShard(w *snapcodec.Writer, s int) error {
	return ix.shards[s].encodeInto(w)
}

// encodeInto appends the shard's compressed payload: version and range,
// the summary block, then the lazy block (re-encoded from the decoded
// state when resident, spliced from the backing section when served by
// runs). The error is a disk re-read failure.
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
	// Served by runs: re-read the section from the snapshot file and
	// splice its lazy block — the codec is canonical, so the section's lazy
	// tail IS the shard's current lazy encoding.
	lazy, err := sh.section()
	if err != nil {
		return err
	}
	w.Raw(lazy)
	return nil
}

// exactBytes returns the exact encoded size of the shard's full payload —
// reported by /debug/stats and checked by BindBacking. Computed at most
// once and cached; decoding a shard seeds it with the section payload
// length.
func (sh *Shard) exactBytes() int64 {
	if b := sh.encBytes.Load(); b != 0 {
		return b
	}
	var w snapcodec.Writer
	if err := sh.encodeInto(&w); err != nil {
		// Unreachable: encBytes is always cached before a shard can lose
		// its decoded state (decoding seeds it, BindBacking validates
		// against it), and encoding decoded state cannot fail.
		panic(fmt.Sprintf("index: sizing shard [%d,%d): %v", sh.lo, sh.hi, err))
	}
	b := int64(w.Len())
	sh.encBytes.Store(b)
	return b
}

// encodeLazy appends the delta-compressed lazy block: per term (in
// vocabulary order) its postings, then per path (in roster order) its
// node refs, each run delta-coded from the shard's lo on its own so it
// decodes without its neighbours. It returns the run boundaries relative
// to the block's start (see runTable).
func (sh *Shard) encodeLazy(w *snapcodec.Writer, d *shardData) []uint32 {
	base := w.Len()
	off := make([]uint32, 0, len(sh.terms)+len(sh.pathIDs)+1)
	for _, term := range sh.terms {
		off = append(off, uint32(w.Len()-base))
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
		off = append(off, uint32(w.Len()-base))
		refs := d.pathNodes[id]
		prevDoc := sh.lo
		var prevID dewey.ID
		for _, ref := range refs {
			prevDoc, prevID = encodeRefDelta(w, ref, prevDoc, prevID)
		}
	}
	return append(off, uint32(w.Len()-base))
}

// runTable locates the runs of a shard's lazy block — the unit in which a
// shard served from its snapshot section is read, verified, decoded and
// cached. Run i < len(terms) is term i's posting list; run len(terms)+j
// is path j's node list. It is derived from the canonical encoding (the
// load-time walk, or BindBacking's encode) and never stored in the
// snapshot. Immutable once published.
type runTable struct {
	off []uint32 // run i spans [off[i], off[i+1]) of the lazy block; the last entry is the block's length
	crc []uint32 // CRC-32C of each run's bytes
}

// newRunTable checksums each run of lazy between the given boundaries.
func newRunTable(lazy []byte, off []uint32) *runTable {
	crc := make([]uint32, len(off)-1)
	for i := range crc {
		crc[i] = snapcodec.Checksum(lazy[off[i]:off[i+1]])
	}
	return &runTable{off: off, crc: crc}
}

// lazyLen is the length of the whole lazy block.
func (rt *runTable) lazyLen() uint32 { return rt.off[len(rt.off)-1] }

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

// DecodeShard reads one shard payload, binding it to col. The summary
// block is decoded and validated eagerly. With a nil ref the lazy block is
// materialized too; otherwise ref names the payload's own section in the
// snapshot file, and the lazy block is parse-validated but left cold: the
// walk records each run's boundaries and checksum (runTable), a fetch
// re-reads only the runs it needs from there (Shard.postings,
// Shard.nodes), and no copy of the bytes is kept. Either way a malformed
// payload is rejected here. Shards decode independently (and hence in
// parallel); FromShards reassembles and validates the full index.
//
//seda:constructor
func DecodeShard(r *snapcodec.Reader, col *store.Collection, ref *BackingRef) (*Shard, error) {
	total := r.Remaining()
	if ref != nil && ref.size != total {
		return nil, fmt.Errorf("index: decode shard: section size %d != payload size %d", ref.size, total)
	}
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
	if ref != nil {
		rt, err := sh.validateLazy(lazy)
		if err != nil {
			return nil, err
		}
		sh.runs.Store(rt)
		sh.backing.Store(ref)
	} else {
		d, err := sh.decodeLazy(lazy)
		if err != nil {
			return nil, err
		}
		sh.data.Store(d)
	}
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

// decodeLazy materializes the shard's whole lazy block into decoded
// posting lists and per-path node lists.
func (sh *Shard) decodeLazy(raw []byte) (*shardData, error) {
	d, _, err := sh.walkLazy(raw, true)
	return d, err
}

// validateLazy parses the lazy block without materializing it, so a
// snapshot-backed load rejects corrupt payloads up front, and returns the
// run table the walk recorded: every run a later fetch decodes on its own
// was parsed here, from the same bytes its checksum covers.
func (sh *Shard) validateLazy(raw []byte) (*runTable, error) {
	if uint64(len(raw)) > math.MaxUint32 {
		return nil, fmt.Errorf("index: decode: lazy block of %d bytes too large to page", len(raw))
	}
	_, off, err := sh.walkLazy(raw, false)
	if err != nil {
		return nil, err
	}
	return newRunTable(raw, off), nil
}

// walkLazy walks the whole lazy block run by run against the shard's
// summary counts, building the decoded state when build is set and only
// validating otherwise, and returns the run boundaries it crossed. The
// per-run walks are the same code a single run's decode uses, so
// validation, whole-shard and per-run decoding cannot drift. The block
// must be consumed exactly.
func (sh *Shard) walkLazy(raw []byte, build bool) (*shardData, []uint32, error) {
	r := snapcodec.NewReader(raw)
	var d *shardData
	if build {
		d = &shardData{
			postings:  make(map[string][]Posting, len(sh.terms)),
			pathNodes: make(map[pathdict.PathID][]xmldoc.NodeRef, len(sh.pathIDs)),
		}
	}
	off := make([]uint32, 0, len(sh.terms)+len(sh.pathIDs)+1)
	for i, term := range sh.terms {
		off = append(off, uint32(len(raw)-r.Remaining()))
		ps, err := sh.walkTermRun(r, i, build)
		if err != nil {
			return nil, nil, err
		}
		if build {
			d.postings[term] = ps
		}
	}
	for j, id := range sh.pathIDs {
		off = append(off, uint32(len(raw)-r.Remaining()))
		refs, err := sh.walkPathRun(r, j, build)
		if err != nil {
			return nil, nil, err
		}
		if build {
			d.pathNodes[id] = refs
		}
	}
	if err := endOfBlock(r); err != nil {
		return nil, nil, err
	}
	return d, append(off, uint32(len(raw))), nil
}

// decodeRun decodes run i (see runTable) from raw, which must hold exactly
// that run. A term run yields postings, a path run node refs.
func (sh *Shard) decodeRun(i int, raw []byte) ([]Posting, []xmldoc.NodeRef, error) {
	r := snapcodec.NewReader(raw)
	var ps []Posting
	var refs []xmldoc.NodeRef
	var err error
	if i < len(sh.terms) {
		ps, err = sh.walkTermRun(r, i, true)
	} else {
		refs, err = sh.walkPathRun(r, i-len(sh.terms), true)
	}
	if err == nil {
		err = endOfBlock(r)
	}
	return ps, refs, err
}

// endOfBlock reports a read error or unconsumed bytes left after a walk.
func endOfBlock(r *snapcodec.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("index: decode: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after shard payload", snapcodec.ErrCorrupt, r.Remaining())
	}
	return nil
}

// walkTermRun reads term i's posting run, returning the postings when
// build is set.
func (sh *Shard) walkTermRun(r *snapcodec.Reader, i int, build bool) ([]Posting, error) {
	term := sh.terms[i]
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
	return ps, nil
}

// walkPathRun reads path j's node-list run, returning the refs when build
// is set.
func (sh *Shard) walkPathRun(r *snapcodec.Reader, j int, build bool) ([]xmldoc.NodeRef, error) {
	n := sh.pathCounts[j]
	var refs []xmldoc.NodeRef
	if build {
		refs = make([]xmldoc.NodeRef, 0, n)
	}
	prevDoc := sh.lo
	var prevID dewey.ID
	for k := 0; k < n; k++ {
		doc, did, err := sh.decodeRefDelta(r, prevDoc, prevID, build)
		if err != nil {
			return nil, fmt.Errorf("index: decode path %d: %w", sh.pathIDs[j], err)
		}
		prevDoc, prevID = doc, did
		if build {
			refs = append(refs, xmldoc.NodeRef{Doc: xmldoc.DocID(doc), Dewey: did})
		}
	}
	return refs, nil
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

// FromShards assembles an Index over col from decoded shards: the base
// shards, then the segments. Together they must form a contiguous
// document-order partition of the collection, with at least one base
// shard.
func FromShards(col *store.Collection, base, segs []*Shard) (*Index, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("index: no base shards")
	}
	if err := validateShards(col, slices.Concat(base, segs)); err != nil {
		return nil, err
	}
	return finishIndex(col, base, segs), nil
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
