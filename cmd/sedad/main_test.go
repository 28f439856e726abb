package main

import "testing"

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"  ", 0, true},
		{"0MB", 0, true},
		{"4096", 4096, true},
		{"12B", 12, true},
		{"2K", 2 << 10, true},
		{"2KB", 2 << 10, true},
		{"2KiB", 2 << 10, true},
		{"3M", 3 << 20, true},
		{"3MB", 3 << 20, true},
		{"3MiB", 3 << 20, true},
		{"4G", 4 << 30, true},
		{"4GB", 4 << 30, true},
		{"4GiB", 4 << 30, true},
		{"64mb", 64 << 20, true},
		{"1.5gib", 3 << 29, true},
		{" 8 MB ", 8 << 20, true},
		{"0.5K", 512, true},

		{"-1", 0, false},
		{"-0.5MB", 0, false},
		{"-Inf", 0, false},
		{"NaN", 0, false},
		{"nanGB", 0, false},
		{"Inf", 0, false},
		{"+Inf", 0, false},
		{"infinity", 0, false},
		{"abc", 0, false},
		{"MB", 0, false},
		{"1e400", 0, false},

		// The overflow boundary: 2^63 bytes = 8 GiB × 2^30.
		{"9223372036854775807", 1<<63 - 1, true},
		{"9223372036854775808", 0, false},
		{"8589934591GB", 8589934591 << 30, true},
		{"8589934592GB", 0, false},
		{"9223372036854774784.0", 1<<63 - 1024, true},
		{"9223372036854775808.0", 0, false},
		{"8589934591.5GiB", 1<<63 - 1<<29, true},
		{"8589934592.0GiB", 0, false},
		{"1e30", 0, false},
		{"9e18GB", 0, false},
	} {
		got, err := parseByteSize(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseByteSize(%q) = %d; want an error", tc.in, got)
		}
	}
}
