package server

import (
	"fmt"
	"sync"
	"testing"

	"seda/internal/core"
	"seda/internal/store"
)

func testCollection(t *testing.T) *store.Collection {
	t.Helper()
	col := store.NewCollection()
	if _, err := col.AddXML("d.xml", []byte(`<r><v>x</v></r>`)); err != nil {
		t.Fatal(err)
	}
	return col
}

// TestRegistryBuildsOnce hammers Engine from many goroutines and checks
// every caller observes the identical engine — the sync.Once contract.
func TestRegistryBuildsOnce(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterCollection("c", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	const n = 16
	engines := make([]*core.Engine, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := r.Engine("c")
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = eng
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if engines[i] != engines[0] {
			t.Fatalf("goroutine %d saw a different engine", i)
		}
	}
}

func TestRegistryLazyAndList(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterBuiltin("wf", "worldfactbook", 0.02, core.Config{}); err != nil {
		t.Fatal(err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Built {
		t.Fatalf("expected one unbuilt entry, got %+v", infos)
	}
	if _, err := r.Engine("wf"); err != nil {
		t.Fatal(err)
	}
	infos = r.List()
	if !infos[0].Built || infos[0].Docs == 0 {
		t.Fatalf("expected built entry with docs, got %+v", infos)
	}
}

// TestRegistryRetriesFailedBuild: a build error must not brick the name —
// the next Engine call retries instead of returning the cached error.
func TestRegistryRetriesFailedBuild(t *testing.T) {
	r := NewRegistry()
	attempts := 0
	e := &regEntry{
		name: "flaky",
		build: func() (*core.Engine, error) {
			attempts++
			if attempts == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return core.NewEngine(testCollection(t), core.Config{})
		},
	}
	if err := r.register(e); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Engine("flaky"); err == nil {
		t.Fatal("first build should fail")
	}
	eng, err := r.Engine("flaky")
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if eng == nil || attempts != 2 {
		t.Fatalf("attempts = %d, want 2 with a live engine", attempts)
	}
	// Success is sticky: no third build.
	if _, err := r.Engine("flaky"); err != nil || attempts != 2 {
		t.Fatalf("built engine was not reused (attempts=%d, err=%v)", attempts, err)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterBuiltin("x", "enron", 1, core.Config{}); err == nil {
		t.Error("unknown builtin accepted")
	}
	if err := r.RegisterBuiltin("x", "mondial", 0, core.Config{}); err == nil {
		t.Error("zero scale accepted")
	}
	if err := r.RegisterBuiltin("x", "mondial", 1000, core.Config{}); err == nil {
		t.Error("absurd scale accepted")
	}
	r.MaxEntries = 1
	if err := r.RegisterCollection("one", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterCollection("two", testCollection(t), core.Config{}, ""); err == nil {
		t.Error("registration beyond MaxEntries accepted")
	}
	r.MaxEntries = 0
	if err := r.RegisterCollection("", testCollection(t), core.Config{}, ""); err == nil {
		t.Error("empty name accepted")
	}
	// Names land in URLs and snapshot file names; control bytes and
	// slashes must be rejected.
	for _, bad := range []string{"a\x1fb", "a/b", "a b", "ä"} {
		if err := r.RegisterCollection(bad, testCollection(t), core.Config{}, ""); err == nil {
			t.Errorf("invalid name %q accepted", bad)
		}
	}
	if err := r.RegisterCollection("dup", testCollection(t), core.Config{}, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterCollection("dup", testCollection(t), core.Config{}, ""); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := r.Engine("ghost"); err == nil {
		t.Error("unknown collection returned an engine")
	}
}
