package obs

// Opt-in live profiling for hetsim: an HTTP server exposing net/http/pprof
// (CPU, heap, goroutine, block profiles of a long run while it executes) and
// expvar (process memstats plus the observer's aggregated metrics). Nothing
// here runs unless a CLI passes -pprof; the simulation never touches it.

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
	"sync/atomic"
)

var (
	expObserver atomic.Pointer[Observer]
	expOnce     sync.Once
)

// Publish exposes the observer's aggregated metrics as the expvar variable
// "obs" (served at /debug/vars by StartDebugServer). Metrics reads only
// barrier-merged state, so sampling mid-run is safe and shows whole rounds.
// Calling Publish again swaps the published observer.
func Publish(o *Observer) {
	expObserver.Store(o)
	expOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any {
			return expObserver.Load().Metrics()
		}))
	})
}

// StartDebugServer binds addr (e.g. "localhost:6060") and serves the
// default mux — /debug/pprof/* and /debug/vars — in a background goroutine.
// It returns the bound address (useful with a ":0" addr) or the bind error;
// serving errors after a successful bind are ignored, profiling is best
// effort. The caller owns the returned server (Close on shutdown, or simply
// exit).
func StartDebugServer(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: http.DefaultServeMux}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
