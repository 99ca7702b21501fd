package service

import (
	"bytes"
	"fmt"
	"testing"
)

// TestAppendSSEFrame pins the SSE result frame byte for byte against its
// fmt form, with and without the record's trailing newline, at indices
// of every width, into a reused frame.
func TestAppendSSEFrame(t *testing.T) {
	var frame []byte
	for _, idx := range []int{0, 7, 255, 256, 99999, 1 << 40} {
		for _, rec := range [][]byte{[]byte(`{"index":1,"a":"<&>"}` + "\n"), []byte(`{"index":2}`), {}} {
			frame = appendSSE(frame[:0], idx, rec)
			want := fmt.Sprintf("id: %d\ndata: %s\n\n", idx, bytes.TrimRight(rec, "\n"))
			if string(frame) != want {
				t.Fatalf("appendSSE(%d, %q) = %q, want %q", idx, rec, frame, want)
			}
		}
	}
}
