// Package pathdict interns root-to-leaf label paths and tag names so the
// rest of the system can reason about contexts (paper §3: context(n) is the
// root-to-node label path) using small integer ids instead of strings.
//
// A path is written in the paper's notation, e.g.
// "/country/economy/import_partners/item/percentage". Internally a path id
// refers to a node in a prefix trie, which makes parent/ancestor questions
// about paths O(depth) without string manipulation.
package pathdict

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// PathID identifies an interned path. The zero value is InvalidPath.
type PathID int32

// TagID identifies an interned tag (element or attribute name).
type TagID int32

// InvalidPath is returned for unknown paths.
const InvalidPath PathID = 0

// InvalidTag is returned for unknown tags.
const InvalidTag TagID = 0

type pathNode struct {
	parent PathID
	tag    TagID
	depth  int32 // number of steps from the virtual root; "/a/b" has depth 2
}

// Dict is a concurrency-safe dictionary of tags and paths. The zero value is
// not usable; call New.
type Dict struct {
	mu       sync.RWMutex
	tags     map[string]TagID            // guarded by mu
	tagNames []string                    // guarded by mu; index = TagID; [0] is a placeholder
	children map[PathID]map[TagID]PathID // guarded by mu
	nodes    []pathNode                  // guarded by mu; index = PathID; [0] is the virtual root (depth 0)
	strCache []string                    // guarded by mu; lazily filled full strings, index = PathID
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{
		tags:     make(map[string]TagID),
		tagNames: []string{""},
		children: make(map[PathID]map[TagID]PathID),
		nodes:    []pathNode{{parent: -1, tag: 0, depth: 0}},
		strCache: []string{""},
	}
}

// InternTag returns the id for tag, creating it if needed.
func (d *Dict) InternTag(tag string) TagID {
	d.mu.RLock()
	id, ok := d.tags[tag]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.tags[tag]; ok {
		return id
	}
	id = TagID(len(d.tagNames))
	d.tagNames = append(d.tagNames, tag)
	d.tags[tag] = id
	return id
}

// LookupTag returns the id for tag, or InvalidTag if it was never interned.
func (d *Dict) LookupTag(tag string) TagID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tags[tag]
}

// Tag returns the name of an interned tag.
func (d *Dict) Tag(id TagID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.tagNames) {
		return ""
	}
	return d.tagNames[id]
}

// Extend returns the id of the path formed by appending tag to parent,
// interning it if needed. parent == InvalidPath extends the virtual root,
// i.e. Extend(InvalidPath, "country") is the path "/country".
func (d *Dict) Extend(parent PathID, tag string) PathID {
	tid := d.InternTag(tag)
	d.mu.RLock()
	if m, ok := d.children[parent]; ok {
		if id, ok := m[tid]; ok {
			d.mu.RUnlock()
			return id
		}
	}
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.children[parent]
	if !ok {
		m = make(map[TagID]PathID)
		d.children[parent] = m
	}
	if id, ok := m[tid]; ok {
		return id
	}
	id := PathID(len(d.nodes))
	d.nodes = append(d.nodes, pathNode{parent: parent, tag: tid, depth: d.nodes[parent].depth + 1})
	d.strCache = append(d.strCache, "")
	m[tid] = id
	return id
}

// InternPath interns a full path written as "/a/b/c" and returns its id.
// It returns an error for malformed paths (empty, missing leading slash, or
// empty steps).
func (d *Dict) InternPath(path string) (PathID, error) {
	steps, err := splitPath(path)
	if err != nil {
		return InvalidPath, err
	}
	id := InvalidPath
	for _, s := range steps {
		id = d.Extend(id, s)
	}
	return id, nil
}

// LookupPath returns the id for a full path string, or InvalidPath if any
// step was never interned.
func (d *Dict) LookupPath(path string) PathID {
	steps, err := splitPath(path)
	if err != nil {
		return InvalidPath
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	id := InvalidPath
	for _, s := range steps {
		tid, ok := d.tags[s]
		if !ok {
			return InvalidPath
		}
		m, ok := d.children[id]
		if !ok {
			return InvalidPath
		}
		id, ok = m[tid]
		if !ok {
			return InvalidPath
		}
	}
	return id
}

// Path renders the full string form of id, e.g. "/country/economy/GDP".
func (d *Dict) Path(id PathID) string {
	if id == InvalidPath {
		return ""
	}
	d.mu.RLock()
	if int(id) >= len(d.nodes) {
		d.mu.RUnlock()
		return ""
	}
	if s := d.strCache[id]; s != "" {
		d.mu.RUnlock()
		return s
	}
	// Build bottom-up.
	var parts []string
	for cur := id; cur != InvalidPath; cur = d.nodes[cur].parent {
		parts = append(parts, d.tagNames[d.nodes[cur].tag])
	}
	d.mu.RUnlock()
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	s := "/" + strings.Join(parts, "/")
	d.mu.Lock()
	d.strCache[id] = s
	d.mu.Unlock()
	return s
}

// Parent returns the id of the path with the last step removed, or
// InvalidPath for depth-1 paths.
func (d *Dict) Parent(id PathID) PathID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.nodes) {
		return InvalidPath
	}
	return d.nodes[id].parent
}

// LeafTag returns the tag id of the last step of the path.
func (d *Dict) LeafTag(id PathID) TagID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.nodes) {
		return InvalidTag
	}
	return d.nodes[id].tag
}

// LeafName returns the name of the last step of the path ("percentage" for
// "/country/.../percentage").
func (d *Dict) LeafName(id PathID) string { return d.Tag(d.LeafTag(id)) }

// Depth returns the number of steps in the path; "/a/b" has depth 2.
func (d *Dict) Depth(id PathID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.nodes) {
		return 0
	}
	return int(d.nodes[id].depth)
}

// IsPrefixOf reports whether path a is a (non-strict) ancestor of path b in
// the path trie, i.e. the string of a is a step-prefix of the string of b.
func (d *Dict) IsPrefixOf(a, b PathID) bool {
	if a == InvalidPath {
		return true
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(a) >= len(d.nodes) || int(b) >= len(d.nodes) || b == InvalidPath {
		return false
	}
	da, db := d.nodes[a].depth, d.nodes[b].depth
	for db > da {
		b = d.nodes[b].parent
		db--
	}
	return a == b
}

// CommonPrefix returns the deepest path that is a prefix of both a and b
// (their LCA in the path trie), or InvalidPath if they share no steps.
func (d *Dict) CommonPrefix(a, b PathID) PathID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(a) >= len(d.nodes) || int(b) >= len(d.nodes) {
		return InvalidPath
	}
	da, db := depthOfLocked(d, a), depthOfLocked(d, b)
	for da > db {
		a = d.nodes[a].parent
		da--
	}
	for db > da {
		b = d.nodes[b].parent
		db--
	}
	for a != b {
		a, b = d.nodes[a].parent, d.nodes[b].parent
	}
	if a < 0 {
		return InvalidPath
	}
	return a
}

// AncestorAtDepth returns the prefix of id with exactly depth steps, or
// InvalidPath if id is shallower than depth.
func (d *Dict) AncestorAtDepth(id PathID, depth int) PathID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.nodes) {
		return InvalidPath
	}
	cur := int(d.nodes[id].depth)
	if cur < depth {
		return InvalidPath
	}
	for cur > depth {
		id = d.nodes[id].parent
		cur--
	}
	return id
}

// Steps returns the tag ids along the path from the root, in order.
func (d *Dict) Steps(id PathID) []TagID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.nodes) {
		return nil
	}
	out := make([]TagID, d.nodes[id].depth)
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = d.nodes[id].tag
		id = d.nodes[id].parent
	}
	return out
}

// Covered returns, indexed by PathID, whether each interned path or one of
// its ancestors satisfies match. Extend interns a parent before its
// children, so one forward pass over the ids decides every path, calling
// match once per path with the path's leaf tag name. match runs under the
// dictionary's read lock and must not call back into d.
func (d *Dict) Covered(match func(p PathID, leaf string) bool) []bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]bool, len(d.nodes))
	for p := 1; p < len(d.nodes); p++ {
		n := d.nodes[p]
		out[p] = out[n.parent] || match(PathID(p), d.tagNames[n.tag])
	}
	return out
}

// NumPaths returns the number of distinct interned paths (the paper reports
// 1984 distinct paths for World Factbook, §2).
func (d *Dict) NumPaths() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.nodes) - 1
}

// NumTags returns the number of distinct interned tags.
func (d *Dict) NumTags() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tagNames) - 1
}

// AllPaths returns all interned path ids sorted by their string form.
func (d *Dict) AllPaths() []PathID {
	d.mu.RLock()
	n := len(d.nodes)
	d.mu.RUnlock()
	out := make([]PathID, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, PathID(i))
	}
	sort.Slice(out, func(i, j int) bool { return d.Path(out[i]) < d.Path(out[j]) })
	return out
}

func depthOfLocked(d *Dict, id PathID) int32 {
	if id == InvalidPath {
		return 0
	}
	return d.nodes[id].depth
}

func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("pathdict: path %q must start with '/'", path)
	}
	steps := strings.Split(path[1:], "/")
	for _, s := range steps {
		if s == "" {
			return nil, fmt.Errorf("pathdict: path %q has an empty step", path)
		}
	}
	return steps, nil
}
