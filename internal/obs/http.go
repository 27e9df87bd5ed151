package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Route is an extra handler mounted on the debug server, letting
// callers attach endpoints obs itself cannot know about without an
// import cycle — cmd/transn mounts internal/diag's live convergence
// monitor at /debug/diagnostics this way.
type Route struct {
	Pattern string
	Handler http.Handler
}

// ServeDebug starts the debug HTTP endpoint for the run on addr
// (":0" picks a free port) and returns the server plus the bound
// address. Routes:
//
//	/metrics             JSON run report (live snapshot)
//	/debug/vars          expvar (Go runtime stats: memstats, cmdline)
//	/debug/pprof/        CPU/heap/goroutine/... profiles (net/http/pprof)
//	/debug/diagnostics   live diagnostics, when the CLI mounts one (extra)
//
// The handlers are registered on a private mux — nothing leaks into
// http.DefaultServeMux — and the server runs on its own goroutine
// until Close/Shutdown. Both CLIs wire this behind -debug-addr. extra
// routes are mounted after the built-ins; their patterns must not
// collide with the routes above.
func (r *Run) ServeDebug(addr string, extra ...Route) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	r.MountDebug(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// MountDebug registers ServeDebug's built-in routes (/metrics,
// /debug/vars, /debug/pprof/*) on an existing mux, for servers that own
// their mux — transnserve mounts them next to its API routes instead of
// running a second listener.
func (r *Run) MountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteReport(w, r.Report("live"))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
