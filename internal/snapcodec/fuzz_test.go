package snapcodec

import (
	"bytes"
	"testing"
)

// FuzzContainerDecode throws arbitrary bytes at the container framing.
// ReadContainer must never panic or over-allocate on hostile input, and
// anything it does accept must survive a write/read round trip unchanged.
func FuzzContainerDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteContainer(&valid, 3, []Section{
		{Name: "dict", Payload: []byte{1, 2, 3}},
		{Name: "docs", Payload: nil},
	}); err != nil {
		f.Fatal(err)
	}
	// A v4-shaped container carrying a gap-encoded tombstones section
	// (codec version 1, count 2, ids 1 and 3) between graph and shards —
	// the lifecycle roster the engine snapshots write.
	var w Writer
	for _, v := range []int{1, 2, 1, 1} {
		w.Int(v)
	}
	var masked bytes.Buffer
	if err := WriteContainer(&masked, 4, []Section{
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
	if err := WriteContainer(&hostileGuide, 4, []Section{
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
	f.Fuzz(func(t *testing.T, data []byte) {
		version, sections, err := ReadContainer(data, 1<<20)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteContainer(&out, version, sections); err != nil {
			t.Fatalf("re-encoding accepted container: %v", err)
		}
		v2, s2, err := ReadContainer(out.Bytes(), 1<<20)
		if err != nil {
			t.Fatalf("re-decoding re-encoded container: %v", err)
		}
		if v2 != version || len(s2) != len(sections) {
			t.Fatalf("round trip changed shape: version %d->%d, sections %d->%d",
				version, v2, len(sections), len(s2))
		}
		for i := range sections {
			if s2[i].Name != sections[i].Name || !bytes.Equal(s2[i].Payload, sections[i].Payload) {
				t.Fatalf("round trip changed section %d", i)
			}
		}
	})
}
