package serve

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
)

// The hot response bodies (EmbeddingResponse, TranslateResponse,
// KNNResponse, InferResponse) render themselves through appendJSON,
// which writes exactly the bytes json.MarshalIndent(v, "", "  ") writes
// for them — field order, omitempty, indentation, float and string
// escaping — without reflection and without a second indent pass over
// the output. writeJSON uses the method when a body has one; every other
// body goes through MarshalIndent, which is also the oracle the golden
// and fuzz tests hold the appenders to.

// jsonAppender is a response body that encodes itself.
type jsonAppender interface {
	// appendJSON appends the body's MarshalIndent rendering (without a
	// trailing newline) to b. It fails where MarshalIndent fails: on a
	// NaN or infinite float.
	appendJSON(b []byte) ([]byte, error)
}

// errUnsupportedFloat is the appenders' counterpart of MarshalIndent's
// UnsupportedValueError for NaN and ±Inf.
var errUnsupportedFloat = errors.New("serve: NaN or infinite float in response body")

func (r EmbeddingResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, r.Schema)
	b = append(b, ",\n  \"node\": "...)
	b = appendJSONString(b, r.Node)
	if r.View != "" {
		b = append(b, ",\n  \"view\": "...)
		b = appendJSONString(b, r.View)
	}
	b = append(b, ",\n  \"dim\": "...)
	b = strconv.AppendInt(b, int64(r.Dim), 10)
	b = append(b, ",\n  \"embedding\": "...)
	b, err := appendJSONFloats(b, r.Embedding)
	if err != nil {
		return nil, err
	}
	return append(b, "\n}"...), nil
}

func (r TranslateResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, r.Schema)
	b = append(b, ",\n  \"node\": "...)
	b = appendJSONString(b, r.Node)
	b = append(b, ",\n  \"from\": "...)
	b = appendJSONString(b, r.From)
	b = append(b, ",\n  \"to\": "...)
	b = appendJSONString(b, r.To)
	b = append(b, ",\n  \"dim\": "...)
	b = strconv.AppendInt(b, int64(r.Dim), 10)
	b = append(b, ",\n  \"embedding\": "...)
	b, err := appendJSONFloats(b, r.Embedding)
	if err != nil {
		return nil, err
	}
	return append(b, "\n}"...), nil
}

func (r KNNResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, r.Schema)
	b = append(b, ",\n  \"node\": "...)
	b = appendJSONString(b, r.Node)
	b = append(b, ",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, ",\n  \"neighbors\": "...)
	switch {
	case r.Neighbors == nil:
		b = append(b, "null"...)
	case len(r.Neighbors) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, n := range r.Neighbors {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"node\": "...)
			b = appendJSONString(b, n.Node)
			b = append(b, ",\n      \"similarity\": "...)
			var err error
			if b, err = appendJSONFloat(b, n.Similarity); err != nil {
				return nil, err
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}"...), nil
}

func (r InferResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, r.Schema)
	b = append(b, ",\n  \"dim\": "...)
	b = strconv.AppendInt(b, int64(r.Dim), 10)
	b = append(b, ",\n  \"embedding\": "...)
	b, err := appendJSONFloats(b, r.Embedding)
	if err != nil {
		return nil, err
	}
	return append(b, "\n}"...), nil
}

// appendJSONFloats appends v as a top-level field's array value: one
// element per line at the second indent level.
func appendJSONFloats(b []byte, v []float64) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	if len(v) == 0 {
		return append(b, "[]"...), nil
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		var err error
		if b, err = appendJSONFloat(b, x); err != nil {
			return nil, err
		}
	}
	return append(b, "\n  ]"...), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest round-trip form, in exponent notation only below 1e-6 or
// from 1e21 in magnitude, with a two-digit negative exponent shortened
// to one digit (1e-07 becomes 1e-7). The fixed-point range, which holds
// every embedding value in practice, goes through appendFixedFloat;
// the exponent form stays with strconv.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs < 1e21 && (abs >= 1e-6 || abs == 0) {
		return appendFixedFloat(b, f), nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, errUnsupportedFloat
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendJSONString appends s quoted. Printable ASCII other than the
// quote, the backslash and the HTML-escaped <, > and & needs no
// escaping; any other byte sends the whole string to encoding/json, so
// HTML escapes, control bytes, invalid UTF-8 (\ufffd) and U+2028/2029
// come out exactly as MarshalIndent writes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONStringSlow(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONStringSlow is appendJSONString's out-of-line fallback.
//
//go:noinline
func appendJSONStringSlow(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}
