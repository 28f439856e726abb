// Command sedad serves SEDA's interactive exploration loop (paper Figure
// 6) as a stateful HTTP/JSON API: collections, sessions, top-k, context
// and connection summaries, refinement, star-schema cubes, and OLAP
// aggregates. See internal/server for the endpoint list and README.md for
// curl examples.
//
// Usage:
//
//	sedad                              # listen on :8080, no preloaded corpora
//	sedad -preload worldfactbook       # register (lazily build) a builtin
//	sedad -addr :9000 -scale 0.2       # bigger generated corpora
//	sedad -parallelism 1               # sequential builds and searches
//	sedad -data ./data                 # disk-backed: engines persist as
//	                                   # snapshots and survive restarts
//	sedad -resident-budget 64MB        # page index shards in on demand and
//	                                   # evict cold ones past the budget
//	sedad -slowlog 250ms               # log top-k searches >= 250ms
//	sedad -pprof                       # profiling at /debug/pprof/
//
// GET /metrics serves Prometheus text exposition; every response carries
// an X-Request-ID that also tags access-log and slow-query-log lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seda"
)

// parseByteSize parses a human byte size: a non-negative number with an
// optional KB/MB/GB (or K/M/G, case-insensitive, optionally ending in iB)
// suffix, binary units. "" and "0" mean disabled (0 bytes). NaN, the
// infinities, and sizes of 2^63 bytes or more are rejected: they do not
// fit an int64 byte count.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			upper = strings.TrimSuffix(upper, u.suffix)
			break
		}
	}
	num := strings.TrimSpace(upper)
	// Whole numbers parse exactly, so the limit holds to the byte.
	if i, err := strconv.ParseInt(num, 10, 64); err == nil && i >= 0 {
		if i > math.MaxInt64/mult {
			return 0, errTooLarge(s)
		}
		return i * mult, nil
	}
	n, err := strconv.ParseFloat(num, 64)
	if err != nil || n < 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return 0, fmt.Errorf("invalid byte size %q (use e.g. 64MB, 1.5GB, or a plain byte count)", s)
	}
	if v := n * float64(mult); v < 1<<63 {
		return int64(v), nil
	}
	return 0, errTooLarge(s)
}

func errTooLarge(s string) error {
	return fmt.Errorf("byte size %q is too large (must be below 2^63 bytes)", s)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 0.05, "default corpus scale for builtin collections")
	ttl := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0 disables TTL eviction)")
	maxSessions := flag.Int("max-sessions", 1024, "session table capacity (LRU-evicted beyond)")
	cacheSize := flag.Int("cache-size", 256, "top-k result cache entries (0 disables caching)")
	preload := flag.String("preload", "", "comma-separated builtin corpora to register at startup (worldfactbook,mondial,googlebase,recipeml)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for engine builds and top-k searches (0 = all cores, 1 = sequential)")
	shards := flag.Int("shards", 0, "horizontal index shards per collection (0 = single shard; answers are identical at any setting)")
	residentBudget := flag.String("resident-budget", "", "per-collection shard residency budget, e.g. 64MB or 1.5GB (empty or 0 = fully resident; answers are identical at any setting)")
	compactThreshold := flag.Float64("compact-threshold", 0.3, "background-compact a collection when its tombstone ratio reaches this fraction (0 disables; compaction then runs only on explicit POST /collections/{name}/compact)")
	data := flag.String("data", "", "snapshot directory: persist engines after first build and reload them at boot (empty = memory-only)")
	slowlog := flag.Duration("slowlog", 0, "log top-k searches taking at least this long, with their request id (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	flag.Parse()
	if *parallelism < 0 {
		log.Fatal("sedad: -parallelism must be >= 0")
	}
	if *shards < 0 || *shards > seda.MaxShards {
		log.Fatalf("sedad: -shards must be in 0..%d", seda.MaxShards)
	}
	budget, err := parseByteSize(*residentBudget)
	if err != nil {
		log.Fatalf("sedad: -resident-budget: %v", err)
	}
	if *compactThreshold < 0 || *compactThreshold > 1 {
		log.Fatal("sedad: -compact-threshold must be in [0, 1]")
	}

	logger := log.New(os.Stderr, "sedad ", log.LstdFlags|log.Lmsgprefix)

	// The Options zero value means "use the default", so an explicit 0 on
	// the command line maps to the negative "disabled" spelling.
	if *cacheSize == 0 {
		*cacheSize = -1
	}
	if *ttl == 0 {
		*ttl = -1
	}
	srv := seda.NewServer(seda.ServerOptions{
		SessionTTL:         *ttl,
		MaxSessions:        *maxSessions,
		CacheSize:          *cacheSize,
		BuiltinScale:       *scale,
		Parallelism:        *parallelism,
		Shards:             *shards,
		ResidentBudget:     budget,
		AccessLog:          logger,
		SlowQueryThreshold: *slowlog,
		EnablePprof:        *pprofOn,
	})
	srv.Registry().CompactThreshold = *compactThreshold
	// Snapshots load before preloads so a preload of a name already on
	// disk upgrades the discovered entry: the snapshot then serves as that
	// collection's validated build cache.
	if *data != "" {
		loaded, err := srv.Registry().EnableSnapshots(*data, *parallelism)
		if err != nil {
			logger.Fatalf("snapshot dir %s: %v", *data, err)
		}
		logger.Printf("disk-backed registry at %s (%d snapshot(s) found)", *data, len(loaded))
		for _, name := range loaded {
			logger.Printf("registered snapshot collection %q (loaded on first use)", name)
		}
	}
	for _, name := range strings.Split(*preload, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := srv.Registry().RegisterBuiltin(name, name, *scale, seda.Config{Parallelism: *parallelism, Shards: *shards, ResidentBudget: budget}); err != nil {
			logger.Fatalf("preload %s: %v", name, err)
		}
		logger.Printf("registered builtin collection %q (scale %g, built on first use)", name, *scale)
	}

	// The server's own middleware writes the access log (with request ids
	// and per-endpoint metrics), so no wrapper handler is needed here.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		logger.Fatalf("serve: %v", err)
	case s := <-sig:
		logger.Printf("caught %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Printf("shutdown: %v", err)
		}
	}
}
