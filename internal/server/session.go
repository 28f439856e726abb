package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"seda/internal/core"
	"seda/internal/cube"
)

// session is one server-side exploration: a core.Session plus the serving
// metadata around it. The embedded mutex serializes the Figure-6 state
// machine for this session only — one session's refinement never blocks
// another session's top-k (core.Engine is read-concurrent; see
// internal/core's package comment).
type session struct {
	id         string
	collection string
	eng        *core.Engine
	created    time.Time

	// mu guards the exploration state below. Handlers hold it across the
	// core.Session call they perform; the manager's table lock is never
	// held at the same time.
	mu   sync.Mutex
	sess *core.Session // guarded by mu
	star *cube.Star    // guarded by mu; last BuildCube result, consumed by /analyze
	// heldQuery and heldK name the (query, k) whose top-k results the
	// session currently holds (heldK is 0 when it holds none); a repeated
	// identical top-k request is then served from them, fully read-only
	// (it must not clear the session's downstream summaries).
	heldQuery string // guarded by mu
	heldK     int    // guarded by mu
}

// queryStringLocked renders the session's current (possibly refined)
// query. Callers must hold s.mu.
func (s *session) queryStringLocked() string { return s.sess.Query().String() }

// sessionManager is the concurrent session table with TTL and max-count
// eviction. All methods are safe for concurrent use; none hold the table
// lock while engine work runs.
type sessionManager struct {
	ttl time.Duration
	max int
	now func() time.Time // injectable clock for eviction tests

	mu       sync.Mutex
	sessions map[string]*session  // guarded by mu
	lastUsed map[string]time.Time // guarded by mu

	evictedTTL uint64 // guarded by mu
	evictedLRU uint64 // guarded by mu
}

func newSessionManager(ttl time.Duration, max int, now func() time.Time) *sessionManager {
	if now == nil {
		now = time.Now
	}
	return &sessionManager{
		ttl:      ttl,
		max:      max,
		now:      now,
		sessions: make(map[string]*session),
		lastUsed: make(map[string]time.Time),
	}
}

// newSessionID returns an unguessable id like "s-9f86d081e4a3c2b1".
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: crypto/rand failed: %v", err))
	}
	return "s-" + hex.EncodeToString(b[:])
}

// create registers a new session, first evicting expired sessions and —
// if the table is still at capacity — the least recently used one.
func (m *sessionManager) create(collection string, eng *core.Engine, cs *core.Session) *session {
	s := &session{
		id:         newSessionID(),
		collection: collection,
		eng:        eng,
		created:    m.now(),
		sess:       cs,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	for m.max > 0 && len(m.sessions) >= m.max {
		m.evictOldestLocked()
	}
	m.sessions[s.id] = s
	m.lastUsed[s.id] = s.created
	return s
}

// get returns the live session for id, bumping its recency. An id that
// was never issued, was evicted, or has sat idle past the TTL yields an
// error (the TTL check expires in place, so a stale id dies even if no
// create has swept it yet).
func (m *sessionManager) get(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %q", id)
	}
	if m.ttl > 0 && m.now().Sub(m.lastUsed[id]) > m.ttl {
		m.deleteLocked(id)
		m.evictedTTL++
		return nil, fmt.Errorf("session %q expired", id)
	}
	m.lastUsed[id] = m.now()
	return s, nil
}

// remove deletes a session (DELETE /sessions/{id}); unknown ids are a
// no-op.
func (m *sessionManager) remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deleteLocked(id)
}

// sweepLocked evicts every session idle past the TTL.
func (m *sessionManager) sweepLocked() {
	if m.ttl <= 0 {
		return
	}
	cutoff := m.now().Add(-m.ttl)
	for id, used := range m.lastUsed {
		if used.Before(cutoff) {
			m.deleteLocked(id)
			m.evictedTTL++
		}
	}
}

// evictOldestLocked drops the least recently used session.
func (m *sessionManager) evictOldestLocked() {
	var oldest string
	var oldestAt time.Time
	for id, used := range m.lastUsed {
		if oldest == "" || used.Before(oldestAt) {
			oldest, oldestAt = id, used
		}
	}
	if oldest != "" {
		m.deleteLocked(oldest)
		m.evictedLRU++
	}
}

func (m *sessionManager) deleteLocked(id string) {
	delete(m.sessions, id)
	delete(m.lastUsed, id)
}

// sessionStats is a point-in-time snapshot for /debug/stats.
type sessionStats struct {
	Active     int    `json:"active"`
	Max        int    `json:"max"`
	TTLSeconds int    `json:"ttl_seconds"`
	EvictedTTL uint64 `json:"evicted_ttl"`
	EvictedLRU uint64 `json:"evicted_lru"`
}

func (m *sessionManager) stats() sessionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sessionStats{
		Active:     len(m.sessions),
		Max:        m.max,
		TTLSeconds: int(m.ttl / time.Second),
		EvictedTTL: m.evictedTTL,
		EvictedLRU: m.evictedLRU,
	}
}
