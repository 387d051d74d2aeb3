package kdd

import (
	"bytes"
	"encoding/json"
	"io"
	"iter"
	"math"
	"strings"
	"testing"
)

// decodeRef is the reference implementation the fast parser must match:
// the json.Decoder loop ghsom-serve used before RecordParser.
func decodeRef(input string) ([]Record, error) {
	dec := json.NewDecoder(strings.NewReader(input))
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// parseFast drains r through RecordParser.
func parseFast(r io.Reader) ([]Record, error) {
	p := NewRecordParser(r)
	var out []Record
	for {
		var rec Record
		if err := p.Next(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// chunkReader yields at most n bytes per Read call, so refills land at
// arbitrary points inside values.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// recordsBitEqual compares records with float64 bit identity (so -0 vs 0
// and NaN-shaped corruption cannot slip through a == compare).
func recordsBitEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	var va, vb [38]float64
	for i := range a {
		a[i].NumericFeaturesInto(va[:])
		b[i].NumericFeaturesInto(vb[:])
		for j := range va {
			if math.Float64bits(va[j]) != math.Float64bits(vb[j]) {
				return false
			}
		}
		if a[i].Protocol != b[i].Protocol || a[i].Service != b[i].Service ||
			a[i].Flag != b[i].Flag || a[i].Label != b[i].Label ||
			a[i].Land != b[i].Land || a[i].LoggedIn != b[i].LoggedIn ||
			a[i].IsHostLogin != b[i].IsHostLogin || a[i].IsGuestLogin != b[i].IsGuestLogin {
			return false
		}
	}
	return true
}

// checkParserEquivalence asserts RecordParser reading r and json.Decoder
// reading input (the same bytes) agree: same records bit-for-bit, and
// errors on the same record index.
func checkParserEquivalence(t *testing.T, input string, r io.Reader) {
	t.Helper()
	want, wantErr := decodeRef(input)
	got, gotErr := parseFast(r)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("input %q:\n decoder err: %v\n parser err:  %v", input, wantErr, gotErr)
	}
	if !recordsBitEqual(want, got) {
		t.Fatalf("input %q:\n decoder: %+v\n parser:  %+v", input, want, got)
	}
}

func ndjsonTestInputs() iter.Seq[string] {
	return func(yield func(string) bool) {
		records := columnarTestRecords(40)
		var marshaled bytes.Buffer
		enc := json.NewEncoder(&marshaled)
		for i := range records {
			enc.Encode(&records[i])
		}
		var pretty bytes.Buffer
		ind := json.NewEncoder(&pretty)
		ind.SetIndent("", "  ")
		for i := 0; i < 5; i++ {
			ind.Encode(&records[i])
		}
		inputs := []string{
			"", "   \n\t ", marshaled.String(), pretty.String(),
			// Back-to-back objects with no separator.
			`{"Duration":1}{"Duration":2}`,
			// Unknown keys (skipped), case-folded keys (matched).
			`{"duration": 3.5, "Bogus": {"nested": [1,2,{"x":"}"}]}, "SERVICE": "http"}`,
			`{"Unknown": "value", "Protocol": "tcp"}`,
			// Escaped strings take the slow path but must still parse.
			`{"Service": "ht\u0074p", "Label": "a\"b\\c", "Protocol": "tcp"}`,
			// Number zoo: exact fast path and beyond-15-digit slow path,
			// big exponents, -0, leading-zero errors, overflow.
			`{"Duration": 0.30000000000000004, "SrcBytes": 1e300, "DstBytes": -0}`,
			`{"Duration": 123456789012345678901234567890.5}`,
			`{"Duration": 1E+5, "SrcBytes": 2e-7, "Count": 0.0001}`,
			`{"Duration": 1e999}`,
			`{"Duration": 01}`,
			`{"Duration": +1}`,
			`{"Duration": .5}`,
			`{"Duration": 1.}`,
			`{"Duration": 5e}`,
			`{"Duration": --3}`,
			`{"Duration": NaN}`,
			// Type mismatches: both paths must reject identically.
			`{"Duration": "fast"}`,
			`{"Land": 1}`,
			`{"Protocol": 7}`,
			`{"Duration": true}`,
			// null leaves fields untouched in both.
			`{"Duration": null, "Protocol": null, "Land": null}`,
			// Whole-value type errors.
			`[{"Duration": 1}]`,
			`42`,
			`"just a string"`,
			`true`,
			`null`,
			// Structural damage.
			`{"Duration": 1`,
			`{"Duration"}`,
			`{Duration: 1}`,
			`{"Duration": 1,}`,
			`{"Duration" 1}`,
			`{"Duration": 1} trailing-garbage`,
			`{"Duration": 1}{`,
			// Duplicate keys: last wins in both.
			`{"Duration": 1, "Duration": 2}`,
			// Unicode in symbols.
			`{"Service": "héttp", "Label": "日本語"}`,
			// Strings json.Unmarshal rejects (raw control bytes) or
			// rewrites (invalid UTF-8 becomes U+FFFD).
			"{\"Service\": \"a\x01b\"}",
			"{\"Service\": \"a\tb\"}",
			"{\"Service\": \"a\xffb\", \"Label\": \"\xe6\x97\"}",
			// A record straddling the parser's first refill edge.
			strings.Repeat(" ", ndjsonReadChunk-20) + marshaled.String()[:2000],
		}
		for _, in := range inputs {
			if !yield(in) {
				return
			}
		}
	}
}

func TestRecordParserMatchesJSONDecoder(t *testing.T) {
	for input := range ndjsonTestInputs() {
		checkParserEquivalence(t, input, strings.NewReader(input))
	}
}

// TestRecordParserSmallReads feeds every input one byte at a time, so
// every refill boundary is crossed mid-value, malformed values included.
func TestRecordParserSmallReads(t *testing.T) {
	for input := range ndjsonTestInputs() {
		checkParserEquivalence(t, input, &chunkReader{b: []byte(input), n: 1})
	}
}

// TestRecordParserRefillEdge cuts one record at every byte offset by the
// first buffer refill, so each token kind — key, string, number,
// literal, separator — is split by a refill at least once.
func TestRecordParserRefillEdge(t *testing.T) {
	records := columnarTestRecords(2)
	records[0].Land, records[0].Duration = true, 0.30000000000000004
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	stream := buf.String()
	first := strings.IndexByte(stream, '\n') + 1
	for cut := 0; cut <= first; cut++ {
		input := strings.Repeat(" ", ndjsonReadChunk-cut) + stream
		checkParserEquivalence(t, input, strings.NewReader(input))
	}
}

// TestRecordParserLargeStreamBuffer checks the buffer does not grow with
// stream length: consumed bytes must be reclaimed across records.
func TestRecordParserLargeStreamBuffer(t *testing.T) {
	records := columnarTestRecords(20)
	var one bytes.Buffer
	enc := json.NewEncoder(&one)
	for i := range records {
		enc.Encode(&records[i])
	}
	// ~200 copies: a few MB of stream through a parser whose buffer must
	// stay near the chunk size.
	p := NewRecordParser(strings.NewReader(strings.Repeat(one.String(), 200)))
	var rec Record
	n := 0
	for {
		err := p.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 20*200 {
		t.Fatalf("parsed %d records, want %d", n, 20*200)
	}
	if cap(p.buf) > 4*ndjsonReadChunk {
		t.Fatalf("parser buffer grew to %d bytes on a streaming workload", cap(p.buf))
	}
}

func TestRecordParserOversizedRecord(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"Service": "`)
	b.WriteString(strings.Repeat("x", maxNDJSONRecordBytes+1000))
	b.WriteString(`"}`)
	p := NewRecordParser(strings.NewReader(b.String()))
	var rec Record
	err := p.Next(&rec)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized record: err = %v, want size cap error", err)
	}
}

// TestRecordParserLargeRecordAllocs bounds the buffer growth behind one
// record near the size cap: growing geometrically takes a handful of
// reallocations, where growing a chunk at a time took one per 32 KiB.
func TestRecordParserLargeRecordAllocs(t *testing.T) {
	const size = 900 << 10
	input := `{"Service": "` + strings.Repeat("x", size) + `"}`
	var rec Record
	allocs := testing.AllocsPerRun(3, func() {
		p := NewRecordParser(strings.NewReader(input))
		if err := p.Next(&rec); err != nil {
			t.Fatal(err)
		}
	})
	if len(rec.Service) != size {
		t.Fatalf("parsed Service of %d bytes, want %d", len(rec.Service), size)
	}
	if allocs > 16 {
		t.Fatalf("parsing a %d KiB record took %.0f allocations, want <= 16", size>>10, allocs)
	}
}

func TestRecordParserSteadyStateAllocs(t *testing.T) {
	records := columnarTestRecords(100)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		enc.Encode(&records[i])
	}
	stream := buf.Bytes()
	p := NewRecordParser(bytes.NewReader(stream))
	var rec Record
	// Warm up: buffer growth and vocabulary interning happen here.
	for p.Next(&rec) == nil {
	}
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(stream)
		p.Reset(rd)
		for {
			if err := p.Next(&rec); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
		}
	})
	perRecord := allocs / float64(len(records))
	if perRecord > 0.05 {
		t.Fatalf("fast NDJSON path allocates %.3f/record, want <= 0.05", perRecord)
	}
}

func TestReadRecordsNDJSONCapAndErrors(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	records := columnarTestRecords(10)
	for i := range records {
		enc.Encode(&records[i])
	}
	if _, err := ReadRecordsNDJSON(bytes.NewReader(buf.Bytes()), nil, 5); err == nil ||
		!strings.Contains(err.Error(), "exceeds 5 records") {
		t.Fatalf("cap err = %v", err)
	}
	got, err := ReadRecordsNDJSON(bytes.NewReader(buf.Bytes()), make([]Record, 0, 64), 0)
	if err != nil {
		t.Fatalf("ReadRecordsNDJSON: %v", err)
	}
	if !recordsBitEqual(records, got) {
		t.Fatal("ReadRecordsNDJSON diverged from input")
	}
	// Error position is 1-based like the old readRecords loop.
	_, err = ReadRecordsNDJSON(strings.NewReader(`{"Duration":1}`+"\n"+`{"Duration":bad}`), nil, 0)
	if err == nil || !strings.Contains(err.Error(), "record 2:") {
		t.Fatalf("position err = %v, want record 2", err)
	}
}

// FuzzRecordParserEquivalence cross-checks the fast parser against the
// stock json.Decoder on arbitrary streams: identical records and
// identical accept/reject decisions, never a panic — whether the stream
// arrives in one read, one byte per read, or in reads of 1+chunk bytes.
func FuzzRecordParserEquivalence(f *testing.F) {
	i := 0
	for input := range ndjsonTestInputs() {
		f.Add(input, uint16(i*37))
		i++
	}
	f.Fuzz(func(t *testing.T, input string, chunk uint16) {
		checkParserEquivalence(t, input, strings.NewReader(input))
		checkParserEquivalence(t, input, &chunkReader{b: []byte(input), n: 1})
		checkParserEquivalence(t, input, &chunkReader{b: []byte(input), n: 1 + int(chunk)})
	})
}
