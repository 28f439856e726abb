package snapcodec

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzVersion is the container version the fuzz target reads: the engine
// snapshot's current one.
const fuzzVersion = 4

// FuzzContainerDecode throws arbitrary bytes at the container framing.
// ReadContainer must never panic or over-allocate on hostile input, and
// anything it does accept must survive a write/read round trip unchanged.
func FuzzContainerDecode(f *testing.F) {
	sections := []Section{
		{Name: "dict", Payload: []byte{1, 2, 3}},
		{Name: "docs", Payload: nil},
	}
	var valid, retired bytes.Buffer
	if err := WriteContainer(&valid, fuzzVersion, sections); err != nil {
		f.Fatal(err)
	}
	// The same sections stamped with a retired version must be refused.
	if err := WriteContainer(&retired, 3, sections); err != nil {
		f.Fatal(err)
	}
	if _, err := ReadContainer(retired.Bytes(), fuzzVersion); !errors.Is(err, ErrVersion) {
		f.Fatalf("v3 container err = %v, want ErrVersion", err)
	}
	// A v4-shaped container carrying a gap-encoded tombstones section
	// (codec version 1, count 2, ids 1 and 3) between graph and shards —
	// the lifecycle roster the engine snapshots write.
	var w Writer
	for _, v := range []int{1, 2, 1, 1} {
		w.Int(v)
	}
	var masked bytes.Buffer
	if err := WriteContainer(&masked, fuzzVersion, []Section{
		{Name: "graph", Payload: []byte{1}},
		{Name: "tombstones", Payload: w.Bytes()},
		{Name: "index.0", Payload: []byte{2, 0}},
	}); err != nil {
		f.Fatal(err)
	}
	// A dataguide section (codec version 1, threshold 0.4, one guide over
	// document 0) naming path id 1<<30: framing accepts it; rejecting the
	// id is dataguide.Decode's job (see its hostile-input test).
	var dg Writer
	dg.Int(1)
	dg.F64(0.4)
	for _, v := range []int{1, 1, 0, 1, 1 << 30, 0, 0} {
		dg.Int(v)
	}
	var hostileGuide bytes.Buffer
	if err := WriteContainer(&hostileGuide, fuzzVersion, []Section{
		{Name: "dataguide", Payload: dg.Bytes()},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(masked.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncation
	f.Add([]byte{})
	f.Add([]byte("SEDA"))
	f.Add(hostileGuide.Bytes())
	f.Add(retired.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, err := ReadContainer(data, fuzzVersion)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteContainer(&out, fuzzVersion, sections); err != nil {
			t.Fatalf("re-encoding accepted container: %v", err)
		}
		s2, err := ReadContainer(out.Bytes(), fuzzVersion)
		if err != nil {
			t.Fatalf("re-decoding re-encoded container: %v", err)
		}
		if len(s2) != len(sections) {
			t.Fatalf("round trip changed shape: sections %d->%d", len(sections), len(s2))
		}
		for i := range sections {
			if s2[i].Name != sections[i].Name || !bytes.Equal(s2[i].Payload, sections[i].Payload) {
				t.Fatalf("round trip changed section %d", i)
			}
		}
	})
}
