package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// HTTP transport: the fleet protocol over gentriusd's REST surface.
//
//	POST {worker}/v1/shards            DispatchRequest  → DispatchResponse
//	POST {coord}/v1/shards/heartbeat   HeartbeatRequest → HeartbeatResponse
//	POST {coord}/v1/shards/result      ShardResult      → ResultResponse
//
// Clients make exactly one attempt per call: retry/backoff (and the
// rpcsend/rpcrecv fault hooks) live in the coordinator and worker loops, so
// every retry is observable and injectable at one layer.

// DefaultRPCTimeout bounds a single fleet RPC attempt.
const DefaultRPCTimeout = 30 * time.Second

// HTTPWorkerClient is the coordinator's HTTP client for one peer worker.
type HTTPWorkerClient struct {
	base string
	hc   *http.Client
}

// NewHTTPWorkerClient targets a worker at base (e.g. "http://host:port").
func NewHTTPWorkerClient(base string, timeout time.Duration) *HTTPWorkerClient {
	if timeout <= 0 {
		timeout = DefaultRPCTimeout
	}
	return &HTTPWorkerClient{base: base, hc: &http.Client{Timeout: timeout}}
}

func (c *HTTPWorkerClient) Name() string { return c.base }

func (c *HTTPWorkerClient) Dispatch(ctx context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	var resp DispatchResponse
	if err := postJSON(ctx, c.hc, c.base+"/v1/shards", req.TraceID, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// HTTPCoordinatorClient is a worker's HTTP client for its coordinator.
type HTTPCoordinatorClient struct {
	base string
	hc   *http.Client
}

// NewHTTPCoordinatorClient targets a coordinator at base. It is the
// default WorkerConfig.Dial for HTTP fleets.
func NewHTTPCoordinatorClient(base string, timeout time.Duration) *HTTPCoordinatorClient {
	if timeout <= 0 {
		timeout = DefaultRPCTimeout
	}
	return &HTTPCoordinatorClient{base: base, hc: &http.Client{Timeout: timeout}}
}

func (c *HTTPCoordinatorClient) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	var resp HeartbeatResponse
	if err := postJSON(ctx, c.hc, c.base+"/v1/shards/heartbeat", req.TraceID, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *HTTPCoordinatorClient) Result(ctx context.Context, req *ShardResult) (*ResultResponse, error) {
	var resp ResultResponse
	if err := postJSON(ctx, c.hc, c.base+"/v1/shards/result", req.TraceID, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// FleetTraceHeader carries the fleet-run trace id on every fleet RPC, so
// the serving middleware on the receiving node can stamp its http-begin/
// http-end span events (and access log) with the same id the envelope
// carries — joining the HTTP serving path to the fleet timeline.
const FleetTraceHeader = "X-Fleet-Trace"

// postJSON performs one JSON round trip; any non-2xx status is an error.
// A non-empty trace id travels as the X-Fleet-Trace header.
func postJSON(ctx context.Context, hc *http.Client, url, trace string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: encoding %s request: %w", url, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(FleetTraceHeader, trace)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dist: %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// WorkerHandler serves the worker side of the fleet protocol:
//
//	POST /v1/shards → DispatchResponse
//
// gentriusd mounts this on its mux; tests mount it on httptest servers.
func WorkerHandler(w *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shards", func(rw http.ResponseWriter, r *http.Request) {
		serveJSON(rw, r, func(req *DispatchRequest) any { return w.HandleDispatch(req) })
	})
	return mux
}

// CoordinatorHandler serves the coordinator side of the fleet protocol:
//
//	POST /v1/shards/heartbeat → HeartbeatResponse
//	POST /v1/shards/result    → ResultResponse
func CoordinatorHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shards/heartbeat", func(rw http.ResponseWriter, r *http.Request) {
		serveJSON(rw, r, func(req *HeartbeatRequest) any { return c.HandleHeartbeat(req) })
	})
	mux.HandleFunc("/v1/shards/result", func(rw http.ResponseWriter, r *http.Request) {
		serveJSON(rw, r, func(req *ShardResult) any { return c.HandleResult(req) })
	})
	return mux
}

// maxRPCBody bounds the body of a fleet RPC, so that a peer cannot make this
// process buffer an arbitrary amount: several times a dispatch carrying the
// constraints and a frontier checkpoint of a few hundred taxa (a few MB).
// Heartbeats and results also carry the shard's trees when the job collects
// them; one with more than this is refused like any other malformed request.
const maxRPCBody = 64 << 20

// serveJSON decodes one JSON request of bounded size, runs the handler, and
// encodes its response. Fleet RPCs are POST-only.
func serveJSON[Req any](rw http.ResponseWriter, r *http.Request, handle func(*Req) any) {
	if r.Method != http.MethodPost {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	req := new(Req)
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRPCBody)).Decode(req); err != nil {
		http.Error(rw, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(handle(req)); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
	}
}

// LocalWorkerClient adapts an in-process *Worker to WorkerClient — the
// transport the deterministic virtual-time tests (and single-binary fleets)
// use.
type LocalWorkerClient struct {
	WorkerName string
	W          *Worker
}

func (c *LocalWorkerClient) Name() string { return c.WorkerName }

func (c *LocalWorkerClient) Dispatch(_ context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	return c.W.HandleDispatch(req), nil
}

// LocalCoordinatorClient adapts an in-process *Coordinator to
// CoordinatorClient.
type LocalCoordinatorClient struct {
	C *Coordinator
}

func (c *LocalCoordinatorClient) Heartbeat(_ context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	return c.C.HandleHeartbeat(req), nil
}

func (c *LocalCoordinatorClient) Result(_ context.Context, req *ShardResult) (*ResultResponse, error) {
	return c.C.HandleResult(req), nil
}
