// sse.go frames the result stream as Server-Sent Events. The framing is
// deliberately minimal — one "id:" line carrying the absolute point index
// and one "data:" line carrying the JSONL record — because the records
// are single-line JSON by construction (campaign.JSONLSink assembles each
// one from encoding/json parts, none of which holds a raw newline), so no
// multi-line data splitting is ever needed.
package service

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// appendSSE appends one result record's SSE event to frame: the event id
// is the absolute point index in the expanded grid (what a reconnecting
// client echoes back as Last-Event-ID), the data the JSONL record without
// its trailing newline. The caller writes the frame in one call and may
// reuse it for the next record.
func appendSSE(frame []byte, pointIndex int, rec []byte) []byte {
	frame = append(frame, "id: "...)
	frame = strconv.AppendInt(frame, int64(pointIndex), 10)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, bytes.TrimRight(rec, "\n")...)
	return append(frame, "\n\n"...)
}

// writeSSEControl emits a named control event (e.g. "end" carrying the
// job's terminal state), distinguishable from result records because
// those are sent with the default event type.
func writeSSEControl(w io.Writer, event, data string) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
