package metrics

import (
	"encoding/json"
	"net"
	"net/http"
)

// Server exposes a running simulation over HTTP:
//
//	/metrics   Prometheus text exposition of the registry
//	/progress  JSON digest: phase, cycles, points, ETA
//
// The simulation never blocks on a scrape: handlers read atomics (and
// GaugeFunc callbacks, which must be scrape-safe). Start with addr
// ":0" to bind an ephemeral port (tests); Addr reports the bound
// address.
type Server struct {
	reg  *Registry
	prof *SimProfile
	prog *Progress

	ln  net.Listener
	srv *http.Server
}

// NewServer wires a server over the given (possibly nil) components.
func NewServer(reg *Registry, prof *SimProfile, prog *Progress) *Server {
	return &Server{reg: reg, prof: prof, prog: prog}
}

// progressDoc is the /progress response body.
type progressDoc struct {
	ProgressSnapshot
	Phase     string `json:"phase"`
	SimCycles int64  `json:"sim_cycles"`
}

func (s *Server) progressDoc() progressDoc {
	return progressDoc{
		ProgressSnapshot: s.prog.Snapshot(),
		Phase:            s.prof.Phase().String(),
		SimCycles:        s.prof.Cycles(),
	}
}

// Start binds addr and serves in a background goroutine, returning the
// bound address (host:port).
func (s *Server) Start(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.progressDoc())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("gonoc live metrics\n\n  /metrics   Prometheus text exposition\n  /progress  JSON progress digest\n"))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
