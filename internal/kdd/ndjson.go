package kdd

// Allocation-lean NDJSON record parsing: the legacy /detect wire format.
//
// encoding/json's Decoder costs several allocations and a reflection
// walk per record, which makes the wire step more expensive than the
// detection math. RecordParser keeps the generality of the stream
// format (whitespace-separated JSON values, exactly like json.Decoder)
// but parses the overwhelmingly common shape — a flat object with
// exact Go field names, plain strings, plain numbers — in one pass,
// straight out of its read buffer. It reuses that buffer and interns
// the small categorical vocabularies, so the steady state allocates
// nothing per record. A record cut off by the end of the buffered
// bytes is parsed again from its first byte after a refill; records
// are far smaller than a read, so that is rare. Anything outside the
// fast shape (escaped or non-UTF-8 strings, control bytes, case-folded
// or unknown keys, nested values, malformed numbers) falls back to
// json.Unmarshal over the same value, so accepted inputs and error
// behavior match the stock decoder.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxNDJSONRecordBytes caps one JSON value in the stream; a request
// body is additionally capped by the HTTP layer.
const maxNDJSONRecordBytes = 1 << 20

// ndjsonReadChunk is the refill granularity of the parser's buffer.
const ndjsonReadChunk = 32 << 10

// RecordParser reads a stream of JSON-encoded Records — newline- or
// whitespace-separated, exactly the values json.Decoder would accept.
// It is not safe for concurrent use; pool parsers across requests via
// Reset.
type RecordParser struct {
	r      io.Reader
	buf    []byte
	pos    int  // next unread byte in buf
	eof    bool // underlying reader exhausted
	intern map[string]string
}

// NewRecordParser returns a parser reading from r.
func NewRecordParser(r io.Reader) *RecordParser {
	p := &RecordParser{intern: make(map[string]string, 64)}
	p.Reset(r)
	return p
}

// Reset rebinds the parser to a new stream, keeping its buffer and
// intern table (the categorical vocabularies are shared across
// requests, which is exactly why interning pays).
func (p *RecordParser) Reset(r io.Reader) {
	p.r = r
	p.buf = p.buf[:0]
	p.pos = 0
	p.eof = false
}

// Next parses the next record in the stream into rec (which is zeroed
// first). It returns io.EOF exactly when the stream ends cleanly before
// another value starts.
func (p *RecordParser) Next(rec *Record) error {
	if err := p.skipSpace(); err != nil {
		return err // io.EOF here is a clean end of stream
	}
	// One refill and restart covers a record straddling the end of the
	// buffer. A record still cut off after that (a reader trickling
	// small reads) is delimited incrementally by scanValue and parsed
	// once more, so no record costs more than three parses however its
	// bytes arrive.
	for restarted := false; p.buf[p.pos] == '{'; restarted = true {
		*rec = Record{}
		n, st := p.parseObject(p.buf[p.pos:], rec)
		if st == fastOK {
			p.pos += n
			return nil
		}
		if st == fastOut || p.eof || restarted {
			break
		}
		if _, err := p.fill(); err != nil && err != io.EOF {
			return err
		}
	}
	val, err := p.scanValue()
	if err != nil {
		return err
	}
	*rec = Record{}
	if val[0] == '{' {
		if _, st := p.parseObject(val, rec); st == fastOK {
			return nil
		}
		*rec = Record{}
	}
	// Fallback: bytes outside the fast shape go through the stock
	// decoder for identical accept/reject behavior.
	return json.Unmarshal(val, rec)
}

// fill discards the consumed prefix of the buffer and appends up to
// ndjsonReadChunk more bytes from the reader. It returns how many bytes
// were discarded: p.pos is adjusted here, but any extra indices a caller
// holds into p.buf must be reduced by the same amount.
func (p *RecordParser) fill() (int, error) {
	if p.eof {
		return 0, io.EOF
	}
	slid := 0
	if p.pos > 0 {
		slid = p.pos
		n := copy(p.buf, p.buf[p.pos:])
		p.buf = p.buf[:n]
		p.pos = 0
	}
	if len(p.buf) >= maxNDJSONRecordBytes {
		return slid, fmt.Errorf("kdd: JSON record exceeds %d bytes", maxNDJSONRecordBytes)
	}
	start := len(p.buf)
	if cap(p.buf)-start < ndjsonReadChunk {
		// Grow geometrically: a record near the size cap then costs a
		// logarithmic number of reallocations, not one per chunk.
		grown := make([]byte, start, max(2*cap(p.buf), start+ndjsonReadChunk))
		copy(grown, p.buf)
		p.buf = grown
	}
	n, err := p.r.Read(p.buf[start : start+ndjsonReadChunk])
	p.buf = p.buf[:start+n]
	if err == io.EOF {
		p.eof = true
		if n == 0 {
			return slid, io.EOF
		}
		return slid, nil
	}
	return slid, err
}

// peek returns the next byte without consuming it, refilling as needed.
func (p *RecordParser) peek() (byte, error) {
	for p.pos >= len(p.buf) {
		if _, err := p.fill(); err != nil {
			return 0, err
		}
	}
	return p.buf[p.pos], nil
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// skipSpace consumes inter-value whitespace; io.EOF means clean end.
func (p *RecordParser) skipSpace() error {
	for {
		c, err := p.peek()
		if err != nil {
			return err
		}
		if !isJSONSpace(c) {
			return nil
		}
		p.pos++
	}
}

// scanValue consumes one complete JSON value and returns its bytes
// (valid until the next fill). Objects and arrays are scanned with
// string-aware brace balancing; scalars run to the next delimiter.
// The scan start equals p.pos throughout, so after a fill (which slides
// consumed bytes out and moves p.pos) the value always begins at p.pos.
func (p *RecordParser) scanValue() ([]byte, error) {
	c := p.buf[p.pos]
	// refill extends the buffer so index i (relative to p.pos) exists;
	// it returns the adjusted absolute index.
	refill := func(i int) (int, error) {
		for i >= len(p.buf) {
			slid, err := p.fill()
			i -= slid
			if err != nil {
				return i, err
			}
		}
		return i, nil
	}
	switch c {
	case '{', '[':
		depth := 0
		inStr, esc := false, false
		for i := p.pos; ; i++ {
			var err error
			if i, err = refill(i); err != nil {
				return nil, unexpectedEnd(err)
			}
			b := p.buf[i]
			switch {
			case esc:
				esc = false
			case inStr && b == '\\':
				esc = true
			case b == '"':
				inStr = !inStr
			case !inStr && (b == '{' || b == '['):
				depth++
			case !inStr && (b == '}' || b == ']'):
				depth--
				if depth == 0 {
					start := p.pos
					p.pos = i + 1
					return p.buf[start : i+1], nil
				}
			}
		}
	case '"':
		esc := false
		for i := p.pos + 1; ; i++ {
			var err error
			if i, err = refill(i); err != nil {
				return nil, unexpectedEnd(err)
			}
			b := p.buf[i]
			if esc {
				esc = false
			} else if b == '\\' {
				esc = true
			} else if b == '"' {
				start := p.pos
				p.pos = i + 1
				return p.buf[start : i+1], nil
			}
		}
	default:
		// Scalar: number / true / false / null (or garbage the fallback
		// will reject). Runs to whitespace or a structural delimiter.
		for i := p.pos; ; i++ {
			var err error
			if i, err = refill(i); err != nil {
				if err == io.EOF {
					start := p.pos
					p.pos = len(p.buf)
					return p.buf[start:], nil
				}
				return nil, err
			}
			b := p.buf[i]
			if isJSONSpace(b) || b == ',' || b == '}' || b == ']' || b == '{' || b == '[' || b == '"' {
				if i == p.pos {
					// A delimiter where a value must begin ("," / "}" /
					// ...): invalid JSON, same verdict as json.Decoder.
					return nil, fmt.Errorf("kdd: invalid character %q looking for beginning of value", b)
				}
				start := p.pos
				p.pos = i
				return p.buf[start:i], nil
			}
		}
	}
}

func unexpectedEnd(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// fastStatus is the outcome of parsing a record in the fast shape.
type fastStatus uint8

const (
	fastOK   fastStatus = iota // a whole record was parsed
	fastMore                   // the bytes ended inside the record
	fastOut                    // the bytes leave the fast shape
)

// parseObject parses a flat Record object with exact field names from
// the head of b, which starts at '{', and returns the bytes consumed.
// Unless it reports fastOK it leaves rec partially written: the caller
// either reads more bytes and parses again (fastMore) or falls back to
// json.Unmarshal over the same value.
func (p *RecordParser) parseObject(b []byte, rec *Record) (int, fastStatus) {
	i := skipSpaceAt(b, 1) // past '{'
	if i >= len(b) {
		return 0, fastMore
	}
	if b[i] == '}' {
		return i + 1, fastOK
	}
	for {
		if b[i] != '"' {
			return 0, fastOut
		}
		end, st := scanPlainString(b, i+1)
		if st != fastOK {
			return 0, st
		}
		key := b[i+1 : end]
		if i = skipSpaceAt(b, end+1); i >= len(b) {
			return 0, fastMore
		}
		if b[i] != ':' {
			return 0, fastOut
		}
		if i = skipSpaceAt(b, i+1); i >= len(b) {
			return 0, fastMore
		}
		if i, st = p.assignField(key, b, i, rec); st != fastOK {
			return 0, st
		}
		if i = skipSpaceAt(b, i); i >= len(b) {
			return 0, fastMore
		}
		switch b[i] {
		case ',':
			if i = skipSpaceAt(b, i+1); i >= len(b) {
				return 0, fastMore
			}
		case '}':
			return i + 1, fastOK
		default:
			return 0, fastOut
		}
	}
}

func skipSpaceAt(b []byte, i int) int {
	for i < len(b) && isJSONSpace(b[i]) {
		i++
	}
	return i
}

// scanPlainString returns the index of the closing quote of the string
// whose body starts at b[i]. Strings json.Unmarshal would rewrite or
// reject — escapes, control bytes, invalid UTF-8 — leave the fast shape.
func scanPlainString(b []byte, i int) (int, fastStatus) {
	start := i
	var high byte
	for ; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			if high >= utf8.RuneSelf && !utf8.Valid(b[start:i]) {
				return 0, fastOut
			}
			return i, fastOK
		}
		if c == '\\' || c < 0x20 {
			return 0, fastOut
		}
		high |= c
	}
	return 0, fastMore
}

// scanLiteral matches the JSON literal lit at b[i:].
func scanLiteral(b []byte, i int, lit string) (int, fastStatus) {
	if len(b)-i < len(lit) {
		return 0, fastMore
	}
	if string(b[i:i+len(lit)]) != lit {
		return 0, fastOut
	}
	return i + len(lit), fastOK
}

// assignField parses the value at b[i] into the field named key and
// returns the index past it. Unknown keys, type mismatches, and
// out-of-shape values report fastOut.
func (p *RecordParser) assignField(key, b []byte, i int, rec *Record) (int, fastStatus) {
	var fp *float64
	var bp *bool
	var sp *string
	switch string(key) { // compiler avoids allocation for this conversion
	case "Duration":
		fp = &rec.Duration
	case "SrcBytes":
		fp = &rec.SrcBytes
	case "DstBytes":
		fp = &rec.DstBytes
	case "WrongFragment":
		fp = &rec.WrongFragment
	case "Urgent":
		fp = &rec.Urgent
	case "Hot":
		fp = &rec.Hot
	case "NumFailedLogins":
		fp = &rec.NumFailedLogins
	case "NumCompromised":
		fp = &rec.NumCompromised
	case "RootShell":
		fp = &rec.RootShell
	case "SuAttempted":
		fp = &rec.SuAttempted
	case "NumRoot":
		fp = &rec.NumRoot
	case "NumFileCreations":
		fp = &rec.NumFileCreations
	case "NumShells":
		fp = &rec.NumShells
	case "NumAccessFiles":
		fp = &rec.NumAccessFiles
	case "NumOutboundCmds":
		fp = &rec.NumOutboundCmds
	case "Count":
		fp = &rec.Count
	case "SrvCount":
		fp = &rec.SrvCount
	case "SerrorRate":
		fp = &rec.SerrorRate
	case "SrvSerrorRate":
		fp = &rec.SrvSerrorRate
	case "RerrorRate":
		fp = &rec.RerrorRate
	case "SrvRerrorRate":
		fp = &rec.SrvRerrorRate
	case "SameSrvRate":
		fp = &rec.SameSrvRate
	case "DiffSrvRate":
		fp = &rec.DiffSrvRate
	case "SrvDiffHostRate":
		fp = &rec.SrvDiffHostRate
	case "DstHostCount":
		fp = &rec.DstHostCount
	case "DstHostSrvCount":
		fp = &rec.DstHostSrvCount
	case "DstHostSameSrvRate":
		fp = &rec.DstHostSameSrvRate
	case "DstHostDiffSrvRate":
		fp = &rec.DstHostDiffSrvRate
	case "DstHostSameSrcPortRate":
		fp = &rec.DstHostSameSrcPortRate
	case "DstHostSrvDiffHostRate":
		fp = &rec.DstHostSrvDiffHostRate
	case "DstHostSerrorRate":
		fp = &rec.DstHostSerrorRate
	case "DstHostSrvSerrorRate":
		fp = &rec.DstHostSrvSerrorRate
	case "DstHostRerrorRate":
		fp = &rec.DstHostRerrorRate
	case "DstHostSrvRerrorRate":
		fp = &rec.DstHostSrvRerrorRate
	case "Land":
		bp = &rec.Land
	case "LoggedIn":
		bp = &rec.LoggedIn
	case "IsHostLogin":
		bp = &rec.IsHostLogin
	case "IsGuestLogin":
		bp = &rec.IsGuestLogin
	case "Protocol":
		sp = &rec.Protocol
	case "Service":
		sp = &rec.Service
	case "Flag":
		sp = &rec.Flag
	case "Label":
		sp = &rec.Label
	default:
		// Unknown key: json.Unmarshal would skip it case-insensitively
		// or match a field case-folded — either way, not our fast shape.
		return 0, fastOut
	}

	// null leaves any field untouched, matching encoding/json.
	if b[i] == 'n' {
		return scanLiteral(b, i, "null")
	}
	switch {
	case fp != nil:
		v, n, ok := parseJSONNumber(b[i:])
		if !ok {
			return 0, fastOut
		}
		*fp = v
		return i + n, fastOK
	case bp != nil:
		if b[i] == 't' {
			*bp = true
			return scanLiteral(b, i, "true")
		}
		*bp = false
		return scanLiteral(b, i, "false")
	default:
		if b[i] != '"' {
			return 0, fastOut
		}
		end, st := scanPlainString(b, i+1)
		if st != fastOK {
			return 0, st
		}
		*sp = p.internString(b[i+1 : end])
		return end + 1, fastOK
	}
}

// internString returns a string for b, reusing a previously allocated
// copy when the same bytes have been seen. The categorical vocabularies
// (protocols, services, flags, labels) are tiny, so after warm-up this
// never allocates. Oversized or high-cardinality values skip the table.
func (p *RecordParser) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > 64 || len(p.intern) >= 4096 {
		return string(b)
	}
	if s, ok := p.intern[string(b)]; ok { // no-alloc map lookup idiom
		return s
	}
	s := string(b)
	p.intern[s] = s
	return s
}

// parseJSONNumber parses a strict JSON number at the head of b,
// returning the value, bytes consumed, and ok. It refuses anything the
// JSON grammar refuses (leading '+', bare '.', leading zeros) so the
// fallback path produces the canonical error instead. The common case —
// ≤ 15 significant digits, decimal exponent within ±22 — is computed
// exactly with one float multiply/divide, which is correctly rounded
// and therefore bit-identical to strconv.ParseFloat; everything else
// defers to strconv on a copied string (rare).
func parseJSONNumber(b []byte) (float64, int, bool) {
	i := 0
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, 0, false
	}
	// Integer part: '0' alone or nonzero-led digit run.
	if b[i] == '0' {
		i++
		if i < len(b) && b[i] >= '0' && b[i] <= '9' {
			return 0, 0, false // leading zero
		}
	} else {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	intEnd := i
	fracStart, fracEnd := i, i
	if i < len(b) && b[i] == '.' {
		i++
		fracStart = i
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		fracEnd = i
	}
	exp := 0

	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++

		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if exp < 10000 {
				exp = exp*10 + int(b[i]-'0')
			}
			i++
		}
		if expNeg {
			exp = -exp
		}
	}
	end := i

	// Fast exact path.
	intStart := 0
	if neg {
		intStart = 1
	}
	nd := (intEnd - intStart) + (fracEnd - fracStart)
	if nd <= 15 {
		mant := uint64(0)
		for _, c := range b[intStart:intEnd] {
			mant = mant*10 + uint64(c-'0')
		}
		for _, c := range b[fracStart:fracEnd] {
			mant = mant*10 + uint64(c-'0')
		}
		e10 := exp - (fracEnd - fracStart)
		if e10 >= -22 && e10 <= 22 && mant <= 1<<53 {
			v := float64(mant)
			if e10 > 0 {
				v *= pow10Table[e10]
			} else if e10 < 0 {
				v /= pow10Table[-e10]
			}
			if neg {
				v = -v
			}
			return v, end, true
		}
	}
	v, err := strconv.ParseFloat(string(b[:end]), 64)
	if err != nil {
		// Overflow: encoding/json reports its own error; take slow path.
		return 0, 0, false
	}
	if math.IsInf(v, 0) {
		return 0, 0, false
	}
	return v, end, true
}

// pow10Table holds the exactly-representable powers of ten 1e0..1e22.
var pow10Table = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ReadRecordsNDJSON parses a whole NDJSON stream with the fast parser,
// appending to dst (which may be nil or a pooled slice with spare
// capacity). maxRecords > 0 caps the count. Errors report 1-based
// record positions like the json.Decoder loop it replaces.
func ReadRecordsNDJSON(r io.Reader, dst []Record, maxRecords int) ([]Record, error) {
	p := NewRecordParser(r)
	return p.AppendAll(dst, maxRecords)
}

// AppendAll drains the parser's stream into dst.
func (p *RecordParser) AppendAll(dst []Record, maxRecords int) ([]Record, error) {
	for line := len(dst) + 1; ; line++ {
		var rec Record
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
			err := p.Next(&dst[len(dst)-1])
			if err == io.EOF {
				return dst[:len(dst)-1], nil
			}
			if err != nil {
				return dst[:len(dst)-1], fmt.Errorf("record %d: %w", line, err)
			}
		} else {
			err := p.Next(&rec)
			if err == io.EOF {
				return dst, nil
			}
			if err != nil {
				return dst, fmt.Errorf("record %d: %w", line, err)
			}
			dst = append(dst, rec)
		}
		if maxRecords > 0 && len(dst) > maxRecords {
			return dst, fmt.Errorf("request exceeds %d records", maxRecords)
		}
	}
}
