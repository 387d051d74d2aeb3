package anomaly

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encodeRef is the reference AppendJSON must match byte for byte.
func encodeRef(p Prediction) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&p)
	return buf.Bytes(), err
}

func checkAppendJSON(t *testing.T, p Prediction) {
	t.Helper()
	want, wantErr := encodeRef(p)
	prefix := []byte("prev\n")
	got, err := p.AppendJSON(prefix)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: AppendJSON err %v, json.Encoder err %v", p, err, wantErr)
	}
	if err != nil {
		if string(got) != string(prefix) {
			t.Fatalf("%+v: failed AppendJSON changed dst to %q", p, got)
		}
		return
	}
	if got := got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n AppendJSON   %q\n json.Encoder %q", p, got, want)
	}
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	strs := []string{
		"", "normal", "smurf.", "3/17", NovelLabel,
		// One string per byte class that leaves the copy path.
		"a<b", "a>b", "x&y", `say "hi"`, `back\slash`, "nul\x00", "tab\t",
		"unit sep\x1f", "del\x7f", "bad utf8 \xff\xfe \xc3", "sep \u2028 \u2029",
		"héttp 日本語",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5,
		5e-324, -5e-324, 2.2250738585072009e-308, // subnormals
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 1e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e300, math.MaxFloat64,
		0.30000000000000004, 1.2345678901234567, 123456789.12345678, 9007199254740993,
	}
	for _, s := range strs {
		checkAppendJSON(t, Prediction{Label: s, Cell: "0/1", QE: 0.25})
		checkAppendJSON(t, Prediction{Label: "dos", Attack: true, Novel: true, Cell: s, Score: 1})
	}
	for _, f := range floats {
		checkAppendJSON(t, Prediction{Label: "normal", Cell: "2/5", QE: f, Score: -f})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendJSON(t, Prediction{QE: bad})
		checkAppendJSON(t, Prediction{Score: bad})
	}
}

func TestAppendJSONSteadyStateAllocs(t *testing.T) {
	preds := []Prediction{
		{Label: "normal", Cell: "0/3", QE: 0.125, Score: 0.031},
		{Label: "neptune.", Attack: true, Cell: "4/17", QE: 3.2e-7, Score: 1.0000001},
		{Label: NovelLabel, Attack: true, Novel: true, Cell: "12/0", QE: 42, Score: 2},
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for i := range preds {
			var err error
			if buf, err = preds[i].AppendJSON(buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJSON allocates %.1f times per %d verdicts, want 0", allocs, len(preds))
	}
}

// FuzzAppendPredictionJSON cross-checks AppendJSON against json.Encoder
// on arbitrary labels, cells and float bit patterns.
func FuzzAppendPredictionJSON(f *testing.F) {
	f.Add("normal", "0/1", false, false, math.Float64bits(0.25), math.Float64bits(0))
	f.Add("<&>", "\u2028\xff", true, true, math.Float64bits(1e-7), math.Float64bits(1e21))
	f.Add(`"\`, "\x00", true, false, math.Float64bits(math.NaN()), uint64(1))
	f.Fuzz(func(t *testing.T, label, cell string, attack, novel bool, qe, score uint64) {
		checkAppendJSON(t, Prediction{
			Label: label, Attack: attack, Novel: novel, Cell: cell,
			QE: math.Float64frombits(qe), Score: math.Float64frombits(score),
		})
	})
}

func BenchmarkAppendPredictionJSON(b *testing.B) {
	p := Prediction{Label: "neptune.", Attack: true, Cell: "4/17", QE: 0.7071067811865476, Score: 1.25}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for b.Loop() {
		buf, _ = p.AppendJSON(buf[:0])
	}
}

func BenchmarkEncodePredictionStdlib(b *testing.B) {
	p := Prediction{Label: "neptune.", Attack: true, Cell: "4/17", QE: 0.7071067811865476, Score: 1.25}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := enc.Encode(&p); err != nil {
			b.Fatal(err)
		}
	}
}
