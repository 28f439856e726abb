package snapcodec

import (
	"bytes"
	"errors"
	"testing"

	"seda/internal/dewey"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.Int(42)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.14159)
	w.F64(-0.0)
	w.String("")
	w.String("héllo")
	w.Dewey(dewey.ID{1, 2, 2, 1})

	r := NewReader(w.Bytes())
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d, want 0", v)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("uvarint = %d, want 1<<40", v)
	}
	if v := r.Int(); v != 42 {
		t.Errorf("int = %d, want 42", v)
	}
	if v := r.Byte(); v != 0xAB {
		t.Errorf("byte = %x, want ab", v)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("bools did not round-trip")
	}
	if v := r.F64(); v != 3.14159 {
		t.Errorf("f64 = %v, want 3.14159", v)
	}
	r.F64()
	if s := r.String(); s != "" {
		t.Errorf("string = %q, want empty", s)
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("string = %q", s)
	}
	if d := r.Dewey(); d.String() != "1.2.2.1" {
		t.Errorf("dewey = %s", d)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

// TestReaderTruncation cuts a valid payload at every byte offset: each
// prefix must produce a sticky error (or decode a strict prefix of the
// fields), never panic.
func TestReaderTruncation(t *testing.T) {
	var w Writer
	w.Int(7)
	w.String("abcdef")
	w.F64(1.5)
	w.Dewey(dewey.ID{1, 3})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Int()
		_ = r.String()
		r.F64()
		r.Dewey()
		if r.Err() == nil {
			t.Errorf("cut=%d: expected an error", cut)
		}
	}
}

// TestCountGuardsAllocation verifies hostile counts are rejected before
// any allocation proportional to them could happen.
func TestCountGuardsAllocation(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 20) // a count that fits an int32 but dwarfs the input
	w.Byte(0)
	r := NewReader(w.Bytes())
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Fatalf("Count accepted hostile length %d, err=%v", n, r.Err())
	}

	var w2 Writer
	w2.Uvarint(1 << 31) // fits memory math but exceeds int32 counts
	r2 := NewReader(w2.Bytes())
	if n := r2.Int(); n != 0 || r2.Err() == nil {
		t.Fatalf("Int accepted out-of-range %d, err=%v", n, r2.Err())
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Byte() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = r.String()
	r.Uvarint()
	if r.Err() != first {
		t.Errorf("error not sticky: %v then %v", first, r.Err())
	}
}

func container(t *testing.T, version int, sections []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteContainer(&buf, version, sections); err != nil {
		t.Fatalf("WriteContainer: %v", err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	in := []Section{
		{Name: "alpha", Payload: []byte("payload-a")},
		{Name: "beta", Payload: nil},
		{Name: "gamma", Payload: bytes.Repeat([]byte{0xFE}, 1000)},
	}
	data := container(t, 1, in)
	out, err := ReadContainer(data, 1)
	if err != nil {
		t.Fatalf("ReadContainer: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("sections=%d", len(out))
	}
	for i := range in {
		if out[i].Name != in[i].Name || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Errorf("section %d mismatch", i)
		}
	}
}

func TestContainerBadMagic(t *testing.T) {
	_, err := ReadContainer([]byte("NOTASNAPxxxx"), 1)
	if !errors.Is(err, ErrNotSnapshot) {
		t.Errorf("err = %v, want ErrNotSnapshot", err)
	}
	_, err = ReadContainer([]byte("SE"), 1)
	if !errors.Is(err, ErrNotSnapshot) {
		t.Errorf("short input err = %v, want ErrNotSnapshot", err)
	}
}

// TestContainerUnknownVersion: exactly the supported version is read;
// older and newer stamps alike are ErrVersion, from both readers.
func TestContainerUnknownVersion(t *testing.T) {
	for _, v := range []int{1, 3, 5, 99} {
		data := container(t, v, nil)
		if _, err := ReadContainer(data, 4); !errors.Is(err, ErrVersion) {
			t.Errorf("ReadContainer(v%d) err = %v, want ErrVersion", v, err)
		}
		if _, err := ScanSections(bytes.NewReader(data), 4); !errors.Is(err, ErrVersion) {
			t.Errorf("ScanSections(v%d) err = %v, want ErrVersion", v, err)
		}
	}
	if _, err := ReadContainer(container(t, 4, nil), 4); err != nil {
		t.Errorf("supported version rejected: %v", err)
	}
}

func TestContainerChecksumMismatch(t *testing.T) {
	data := container(t, 1, []Section{{Name: "s", Payload: []byte("hello world")}})
	data[len(data)-1] ^= 0x01 // flip a payload byte
	_, err := ReadContainer(data, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestContainerTruncation cuts the container at every offset; every prefix
// must error without panicking.
func TestContainerTruncation(t *testing.T) {
	data := container(t, 1, []Section{
		{Name: "one", Payload: []byte("some bytes here")},
		{Name: "two", Payload: []byte{1, 2, 3}},
	})
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadContainer(data[:cut], 1); err == nil {
			t.Errorf("cut=%d: expected an error", cut)
		}
	}
	// Trailing garbage is also corruption.
	if _, err := ReadContainer(append(append([]byte{}, data...), 0x00), 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte err = %v, want ErrCorrupt", err)
	}
}
