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

// HTTPClient is one node's HTTP line to another's fleet endpoints: the
// coordinator's WorkerClient for a peer, a worker's CoordinatorClient for the
// coordinator that dispatched to it (the default WorkerConfig.Dial).
type HTTPClient struct {
	base string
	hc   *http.Client
}

// NewHTTPClient targets the node at base (e.g. "http://host:port").
func NewHTTPClient(base string, timeout time.Duration) *HTTPClient {
	if timeout <= 0 {
		timeout = DefaultRPCTimeout
	}
	return &HTTPClient{base: base, hc: &http.Client{Timeout: timeout}}
}

func (c *HTTPClient) Name() string { return c.base }

func (c *HTTPClient) Dispatch(ctx context.Context, req *DispatchRequest) (*DispatchResponse, error) {
	return post[DispatchResponse](ctx, c, "/v1/shards", req.TraceID, req)
}

func (c *HTTPClient) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error) {
	return post[HeartbeatResponse](ctx, c, "/v1/shards/heartbeat", req.TraceID, req)
}

func (c *HTTPClient) Result(ctx context.Context, req *ShardResult) (*ResultResponse, error) {
	return post[ResultResponse](ctx, c, "/v1/shards/result", req.TraceID, req)
}

// FleetTraceHeader carries the fleet-run trace id on every fleet RPC, so
// the serving middleware on the receiving node can stamp its http-begin/
// http-end span events (and access log) with the same id the envelope
// carries — joining the HTTP serving path to the fleet timeline.
const FleetTraceHeader = "X-Fleet-Trace"

// post performs one JSON round trip; any non-2xx status is an error.
// A non-empty trace id travels as the X-Fleet-Trace header.
func post[Resp any](ctx context.Context, c *HTTPClient, path, trace string, in any) (*Resp, error) {
	url := c.base + path
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding %s request: %w", url, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(FleetTraceHeader, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("dist: %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	out := new(Resp)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// WorkerHandler serves the worker side of the fleet protocol:
//
//	POST /v1/shards → DispatchResponse
//
// gentriusd mounts this on its mux; tests mount it on httptest servers.
func WorkerHandler(w *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/shards", serveJSON(w.HandleDispatch))
	return mux
}

// CoordinatorHandler serves the coordinator side of the fleet protocol:
//
//	POST /v1/shards/heartbeat → HeartbeatResponse
//	POST /v1/shards/result    → ResultResponse
func CoordinatorHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/shards/heartbeat", serveJSON(c.HandleHeartbeat))
	mux.Handle("/v1/shards/result", serveJSON(c.HandleResult))
	return mux
}

// maxRPCBody bounds the body of a fleet RPC, so that a peer cannot make this
// process buffer an arbitrary amount: several times a dispatch carrying the
// constraints and a frontier checkpoint of a few hundred taxa (a few MB).
// Heartbeats and results also carry the shard's trees when the job collects
// them; one with more than this is refused like any other malformed request.
const maxRPCBody = 64 << 20

// serveJSON serves one fleet RPC: it decodes a JSON request of bounded size,
// runs the handler, and encodes its response. Fleet RPCs are POST-only.
func serveJSON[Req, Resp any](handle func(*Req) *Resp) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
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
