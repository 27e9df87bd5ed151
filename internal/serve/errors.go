// Package serve is the embedding-serving subsystem: a long-running
// HTTP service over a trained TransN model snapshot. It serves final
// averaged embeddings (Section III-C), per-view embeddings, cross-view
// translations through the trained Eq. 8–10 translator stacks, k-NN
// similarity lookups, and online fold-in of unseen nodes (InferNode) —
// behind immutable snapshots swapped atomically on hot reload, each
// with a table of translated rows filled on first request, per-endpoint
// timeouts, and a graceful drain on shutdown. Every error is a typed transn.serve/v1 JSON envelope; the
// service never panics on request input. See API.md for the route
// reference and DESIGN.md §10 for the architecture.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// ErrorSchema identifies the versioned error envelope every non-2xx
// response carries. Success payloads carry the same schema string in
// their top-level "schema" field.
const ErrorSchema = "transn.serve/v1"

// Error codes carried in the transn.serve/v1 envelope. They are the
// machine-readable contract: messages may change, codes may not.
const (
	// CodeBadRequest marks malformed input: missing or non-numeric
	// query parameters, an unparsable JSON body, a non-positive weight.
	CodeBadRequest = "bad_request"
	// CodeUnknownNode marks a node name not present in the graph (or,
	// for per-view and translate requests, not present in the view).
	CodeUnknownNode = "unknown_node"
	// CodeUnknownView marks a view (edge-type) name the model was not
	// trained with.
	CodeUnknownView = "unknown_view"
	// CodeUntrainedPair marks a translate request between two views
	// that share no common nodes, so no translator was trained for the
	// pair (or the model was trained under the no-cross-view ablation).
	CodeUntrainedPair = "untrained_pair"
	// CodeMethodNotAllowed marks a request with the wrong HTTP method
	// (e.g. GET on /admin/reload).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound marks a request for a route the server does not
	// export.
	CodeNotFound = "not_found"
	// CodeNotReady marks a request received while the server has no
	// snapshot to serve from or is draining for shutdown.
	CodeNotReady = "not_ready"
	// CodeTimeout marks a request that exceeded its endpoint's
	// deadline; the response is sent even though the computation may
	// still complete (and fill its translated row) in the background.
	CodeTimeout = "timeout"
	// CodeReloadFailed marks a reload request whose snapshot failed to
	// load or validate; the previous snapshot stays live.
	CodeReloadFailed = "reload_failed"
	// CodeInternal marks an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorBody is the "error" object of the envelope.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description. Not machine-parseable.
	Message string `json:"message"`
	// Status echoes the HTTP status the envelope was sent with.
	Status int `json:"status"`
	// RequestID is the request's correlation ID (the X-Transn-Request-Id
	// value, client-supplied or server-generated) so an error seen by a
	// client can be matched to the server's trace and logs. Omitted when
	// the request carried no ID and tracing was disabled.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx response:
//
//	{"schema": "transn.serve/v1",
//	 "error": {"code": "unknown_node", "message": "...", "status": 404}}
type ErrorEnvelope struct {
	// Schema is always ErrorSchema.
	Schema string `json:"schema"`
	// Error carries the typed error.
	Error ErrorBody `json:"error"`
}

// apiError is a handler-level error that knows its HTTP status and
// envelope code. Handlers return it through the middleware, which
// renders the envelope.
type apiError struct {
	status int
	code   string
	msg    string
}

// Error implements the error interface.
func (e *apiError) Error() string { return e.msg }

// errf builds an apiError with a formatted message.
func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeError renders err as a transn.serve/v1 envelope on w, stamping
// the request's correlation ID into the envelope and the response
// header (when non-empty). Non-API errors become 500/internal.
func writeError(w http.ResponseWriter, reqID string, err error) int {
	ae, ok := err.(*apiError)
	if !ok {
		ae = errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	if reqID != "" {
		w.Header().Set(HeaderRequestID, reqID)
	}
	env := ErrorEnvelope{
		Schema: ErrorSchema,
		Error:  ErrorBody{Code: ae.code, Message: ae.msg, Status: ae.status, RequestID: reqID},
	}
	writeJSON(w, ae.status, env)
	return ae.status
}

// writeJSON writes v as indented JSON with the given status. Encoding
// happens before the header is committed so an encoding failure can
// still produce a 500. A body with its own appendJSON encodes into a
// pooled buffer; any other goes through json.MarshalIndent.
func writeJSON(w http.ResponseWriter, status int, v any) {
	a, ok := v.(jsonAppender)
	if !ok {
		data, err := json.MarshalIndent(v, "", "  ")
		writeBody(w, status, append(data, '\n'), err)
		return
	}
	buf := encodeBufs.Get().(*[]byte)
	data, err := a.appendJSON((*buf)[:0])
	if err == nil {
		data = append(data, '\n')
		if cap(data) <= maxPooledBody {
			*buf = data
		}
	}
	writeBody(w, status, data, err)
	encodeBufs.Put(buf)
}

// encodeBufs recycles the encode buffers of the hot response bodies.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the buffers kept in encodeBufs, so one large knn
// body does not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// writeBody writes an encoded body, or the fixed 500 envelope when
// encoding failed.
func writeBody(w http.ResponseWriter, status int, data []byte, err error) {
	if err != nil {
		http.Error(w, `{"schema":"`+ErrorSchema+`","error":{"code":"`+CodeInternal+
			`","message":"encoding response","status":500}}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// jsonContentType is the Content-Type of every JSON body. writeBody
// assigns this one slice instead of calling Header().Set, which would
// allocate a fresh []string per response. Sharing it is safe because
// nothing edits a header value in place: no handler or middleware here
// touches Content-Type after writeBody, http.Error replaces the slice
// with Set, and an Add would append past its capacity of 1 into a new
// array.
var jsonContentType = []string{"application/json"}
