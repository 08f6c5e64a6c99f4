package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"fpmpart/internal/fpm"
	"fpmpart/internal/telemetry"
)

// solution is what the cache keeps of one solve: the integer shares in
// request order, the solver's diagnostics, and the block layout of a layout
// request, encoded once. Everything else an answer carries — each device's
// predicted seconds, the imbalance, the model generations — is a function
// of the models the cache key pins, so the appender derives it per answer.
type solution struct {
	shares     []int
	iterations int
	converged  bool
	seconds    float64
	layout     []byte // the layoutResponse's JSON; nil unless requested
}

// errNotFinite is appendAnswer's failure on a number JSON cannot carry, where
// encoding/json fails with an UnsupportedValueError.
var errNotFinite = errors.New("service: answer holds a non-finite number")

// answerBufs pools the partition answer's render buffers.
var answerBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// writeAnswer renders the answer to a partition request — a hit, a miss or a
// coalesced one alike — under a "serialize" trace stage. models are the
// request's resolved models: the generations sol's key pins.
func (s *Server) writeAnswer(ctx context.Context, w http.ResponseWriter, models []*Model, sol *solution, cached, coalesced bool) {
	defer telemetry.Stage(ctx, "serialize").End()
	var origin string
	if c := s.cfg.Cluster; c != nil {
		origin = c.Self()
	}
	bp := answerBufs.Get().(*[]byte)
	b, err := appendAnswer((*bp)[:0], models, sol, cached, coalesced, origin)
	// On a render failure the headers go out and the body is lost, as in
	// writeJSON.
	w.Header().Set("Content-Type", "application/json")
	if err == nil {
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	}
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, _ = w.Write(b)
	}
	*bp = b
	answerBufs.Put(bp)
}

// appendAnswer appends the partition answer for sol over models to b: the
// bytes json.Encoder.Encode writes for the equivalent partitionResponse —
// its field order, omitempty fields, float format and HTML-escaped strings,
// and the trailing newline. The predicted times and the imbalance are
// computed as partition.Result computes them.
func appendAnswer(b []byte, models []*Model, sol *solution, cached, coalesced bool, origin string) ([]byte, error) {
	total := 0
	for _, u := range sol.shares {
		total += u
	}
	b = append(b, `{"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"devices":[`...)
	maxT, minT := 0.0, math.Inf(1)
	var err error
	for i, m := range models {
		u := sol.shares[i]
		t := fpm.Time(m.PL, float64(u))
		if u > 0 {
			maxT = max(maxT, t)
			minT = min(minT, t)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"model":`...)
		b = appendString(b, m.ID)
		b = append(b, `,"units":`...)
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, `,"predicted_seconds":`...)
		if b, err = appendFloat(b, t); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	b = append(b, `],"iterations":`...)
	b = strconv.AppendInt(b, int64(sol.iterations), 10)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, sol.converged)
	if minT > 0 && !math.IsInf(minT, 1) {
		if im := maxT/minT - 1; !math.IsNaN(im) && !math.IsInf(im, 0) {
			b = append(b, `,"imbalance":`...)
			b, _ = appendFloat(b, im)
		}
	}
	b = append(b, `,"solve_seconds":`...)
	if b, err = appendFloat(b, sol.seconds); err != nil {
		return b, err
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if sol.layout != nil {
		b = append(b, `,"layout":`...)
		b = append(b, sol.layout...)
	}
	if len(models) > 0 {
		b = append(b, `,"model_generations":[`...)
		for i, m := range models {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, m.Gen, 10)
		}
		b = append(b, ']')
	}
	if origin != "" {
		b = append(b, `,"origin":`...)
		b = appendString(b, origin)
	}
	return append(b, "}\n"...), nil
}

// appendFloat appends f by encoding/json's rule for a float64: the shortest
// form that round-trips, in exponent form below 1e-6 and from 1e21 on, with
// the exponent unpadded ("1e-7", not "1e-07").
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, errNotFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string the way json.Encoder does with
// HTML escaping on: control characters, '<', '>' and '&' as \u00XX, invalid
// UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
