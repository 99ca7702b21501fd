// debug.go is the HTTP debug/ops surface: expvar live counters, campaign
// progress JSON, and net/http/pprof, on an explicit mux bound to an
// operator-chosen address. The campaign service daemon (internal/service,
// DESIGN.md §14) mounts the same mux next to its job API, so one process
// exposes one coherent ops surface whether it runs one campaign (the CLI)
// or many (the daemon).
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// ProgressRegistry tracks the progress of every live campaign in the
// process. The CLI registers its single campaign; the service daemon
// registers one tracker per running job. Registration order is preserved,
// so snapshot listings are deterministic. All methods are safe for
// concurrent use and safe on a nil receiver (a nil registry is empty).
type ProgressRegistry struct {
	mu    sync.Mutex
	seq   int
	order []int
	jobs  map[int]*CampaignProgress
}

// NewProgressRegistry returns an empty registry.
func NewProgressRegistry() *ProgressRegistry {
	return &ProgressRegistry{jobs: make(map[int]*CampaignProgress)}
}

// DefaultRegistry is the process-wide registry the "campaign" expvar and
// every debug mux read. expvar names are global and can be published only
// once, so the var indirects through this registry and each live campaign
// registers its own tracker.
var DefaultRegistry = NewProgressRegistry()

// Register adds p to the registry and returns its removal function
// (idempotent). A nil tracker or nil registry registers nothing.
func (r *ProgressRegistry) Register(p *CampaignProgress) (remove func()) {
	if r == nil || p == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.seq
	r.seq++
	r.order = append(r.order, id)
	r.jobs[id] = p
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			delete(r.jobs, id)
			for i, o := range r.order {
				if o == id {
					r.order = append(r.order[:i], r.order[i+1:]...)
					break
				}
			}
			r.mu.Unlock()
		})
	}
}

// Snapshots returns one snapshot per registered tracker, in registration
// order: the one schema /debug/progress and the "campaign" expvar serve,
// a JSON array whatever the number of campaigns ([] when none runs).
func (r *ProgressRegistry) Snapshots() []ProgressSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	trackers := make([]*CampaignProgress, 0, len(r.order))
	for _, id := range r.order {
		trackers = append(trackers, r.jobs[id])
	}
	r.mu.Unlock()
	// Snapshot outside the registry lock: each tracker has its own mutex.
	out := make([]ProgressSnapshot, len(trackers))
	for i, p := range trackers {
		out[i] = p.Snapshot()
	}
	return out
}

func init() {
	expvar.Publish("campaign", expvar.Func(func() any {
		return DefaultRegistry.Snapshots()
	}))
}

// DebugMux returns a mux serving the debug endpoints over reg (nil means
// DefaultRegistry):
//
//	/debug/progress  campaign progress (JSON array of snapshots)
//	/debug/vars      expvar (memstats, cmdline, campaign progress)
//	/debug/pprof/    full net/http/pprof suite (profile, heap, trace, …)
func DebugMux(reg *ProgressRegistry) *http.ServeMux {
	if reg == nil {
		reg = DefaultRegistry
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshots())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// net/http/pprof self-registers only on http.DefaultServeMux; an
	// explicit mux mounts the handlers by hand.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a live debug/ops HTTP endpoint. Endpoints:
//
//	/debug/progress  campaign progress (JSON array of snapshots)
//	/debug/vars      expvar (memstats, cmdline, campaign progress)
//	/debug/pprof/    full net/http/pprof suite (profile, heap, trace, …)
type DebugServer struct {
	ln         net.Listener
	srv        *http.Server
	unregister func()
}

// StartDebugServer binds addr (e.g. ":6060"; ":0" picks a free port) and
// serves the debug endpoints in a background goroutine until Close.
// progress may be nil: the endpoints still serve, reporting no
// campaigns. A non-nil progress is registered in DefaultRegistry for the
// server's lifetime.
func StartDebugServer(addr string, progress *CampaignProgress) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", addr, err)
	}
	unregister := DefaultRegistry.Register(progress)

	mux := DebugMux(DefaultRegistry)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "repro debug endpoint\n\n/debug/progress\n/debug/vars\n/debug/pprof/\n")
	})

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv, unregister: unregister}, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server, releases the listener, and unregisters the
// server's progress tracker.
func (d *DebugServer) Close() error {
	d.unregister()
	return d.srv.Close()
}
