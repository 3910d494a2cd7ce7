// Optional HTTP endpoint: Prometheus metrics and pprof on one mux, so a
// long parallel run can be inspected live
// (-metrics-addr :9090 → /metrics, /debug/pprof/).
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves the registry's Prometheus exposition with the
// text-format content type. Families render in sorted order, so scrapes
// are deterministic.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// RegisterDebug mounts the pprof suite under /debug/pprof/ — the debug half
// of NewMux, for callers assembling their own mux (cmd/gentriusd wraps
// /metrics in its request middleware).
func RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// NewMux returns an http.Handler exposing the registry at /metrics and the
// pprof suite under /debug/pprof/.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", MetricsHandler(reg))
	RegisterDebug(mux)
	return mux
}

// StartServer listens on addr and serves NewMux(reg) in the background.
// It returns the server (Close to stop) and the bound address, which
// differs from addr when addr uses port 0.
func StartServer(addr string, reg *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: NewMux(reg), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return srv, ln.Addr().String(), nil
}
