package anomaly

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendJSON appends p's NDJSON wire form to dst: exactly the bytes
// json.NewEncoder(w).Encode(&p) writes, trailing newline included, but
// without reflection or allocation. A non-finite QE or Score is an
// error, as it is for encoding/json, and leaves dst unchanged.
func (p *Prediction) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"Label":`...)
	b = appendJSONString(b, p.Label)
	b = append(b, `,"Attack":`...)
	b = strconv.AppendBool(b, p.Attack)
	b = append(b, `,"Novel":`...)
	b = strconv.AppendBool(b, p.Novel)
	b = append(b, `,"Cell":`...)
	b = appendJSONString(b, p.Cell)
	b = append(b, `,"QE":`...)
	b, err := appendJSONFloat(b, p.QE)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"Score":`...)
	if b, err = appendJSONFloat(b, p.Score); err != nil {
		return dst, err
	}
	return append(b, "}\n"...), nil
}

// appendJSONString appends s quoted. Strings of printable ASCII with
// nothing to escape — every cell name and label a detector produces —
// are copied as they are; any other string goes through json.Marshal,
// which owns the HTML escaping, invalid UTF-8 and U+2028/U+2029 rules.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f the way encoding/json formats a float64:
// shortest 'f' form, switching to 'e' below 1e-6 or from 1e21 on, with
// a two-digit negative exponent trimmed to one digit (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("anomaly: unsupported verdict value %v", f)
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
