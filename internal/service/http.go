// http.go is the daemon's API surface (DESIGN.md §14):
//
//	POST   /v1/jobs              submit a campaign spec (+optional shard) → job status
//	GET    /v1/jobs              list jobs, submission order
//	GET    /v1/jobs/{id}         job status (state, range, progress)
//	GET    /v1/jobs/{id}/results JSONL result stream; SSE-framed when the
//	                             client sends Accept: text/event-stream,
//	                             resumable via Last-Event-ID (point index)
//	DELETE /v1/jobs/{id}         graceful cancel (drain in-flight points)
//	/debug/…                     obs debug endpoints (progress, vars, pprof)
//
// Streams follow the job: records buffered so far are sent immediately,
// then the connection stays open until the job reaches a terminal state.
// SSE event ids are absolute point indices in the expanded grid, so a
// reconnecting client resumes exactly where it dropped — across daemon
// restarts too, because the stream buffer is rebuilt from the write-ahead
// journal before the job continues.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// maxSpecBytes bounds a job submission body; campaign specs are small
// JSON documents, so anything beyond this is a client error.
const maxSpecBytes = 4 << 20

// NewHandler returns the daemon's HTTP handler over m: the /v1 job API
// plus the obs debug endpoints.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		j, err := m.Submit(body)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrDraining) {
				code = http.StatusServiceUnavailable
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, http.StatusCreated, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		statuses := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			statuses[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, struct {
			Jobs []JobStatus `json:"jobs"`
		}{statuses})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		serveResults(w, r, j)
	})
	mux.Handle("/debug/", obs.DebugMux(nil))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "repro campaign service\n\nPOST   /v1/jobs\nGET    /v1/jobs\nGET    /v1/jobs/{id}\nGET    /v1/jobs/{id}/results\nDELETE /v1/jobs/{id}\n/debug/progress\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// serveResults streams the job's JSONL records: everything buffered, then
// live completions, until the job is terminal or the client disconnects.
// With Accept: text/event-stream the records are SSE-framed (event id =
// absolute point index, a terminal "end" event carrying the final state);
// otherwise the body is plain application/x-ndjson. Both modes accept
// ?from=<pointIndex> to skip records below that absolute index; SSE
// additionally honors Last-Event-ID (the standard reconnect header),
// which names the last index received, so streaming resumes after it.
func serveResults(w http.ResponseWriter, r *http.Request, j *Job) {
	offset := 0
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q: %w", from, err))
			return
		}
		offset = clampOffset(n, j.rng.Lo, j.rng.Hi)
	}
	sse := false
	for _, accept := range r.Header.Values("Accept") {
		if strings.Contains(accept, "text/event-stream") {
			sse = true
		}
	}
	if sse {
		if last := r.Header.Get("Last-Event-ID"); last != "" {
			n, err := strconv.Atoi(last)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q: %w", last, err))
				return
			}
			if n < j.rng.Hi {
				n++ // resume after the last point received; n < Hi cannot wrap
			}
			offset = clampOffset(n, j.rng.Lo, j.rng.Hi)
		}
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	ctx := r.Context()
	var frame []byte
	for {
		recs, state, changed := j.next(offset)
		for k, rec := range recs {
			var err error
			if sse {
				frame = appendSSE(frame[:0], j.rng.Lo+offset+k, rec)
				_, err = w.Write(frame)
			} else {
				_, err = w.Write(rec)
			}
			if err != nil {
				return
			}
		}
		offset += len(recs)
		flush()
		if state.Terminal() {
			if sse {
				writeSSEControl(w, "end", string(state))
				flush()
			}
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-changed:
		}
	}
}

// clampOffset converts an absolute point index into a stream offset
// inside the job's [lo, hi) range, clamped to [0, range size]. The index
// comes from the client, so it is compared with the bounds before lo is
// subtracted: pointIndex-lo wraps at the int extremes.
func clampOffset(pointIndex, lo, hi int) int {
	switch {
	case pointIndex <= lo:
		return 0
	case pointIndex >= hi:
		return hi - lo
	}
	return pointIndex - lo
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
