package vecmath

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the quantized candidate-generation engine: reduced-precision
// shadow copies of a weight arena (float32 narrowing, or int8 symmetric
// per-unit-scale quantization with exact i32 dot accumulation) that the
// blocked BMU search scores instead of the float64 arena, shrinking the
// per-tile memory traffic 2–8x. Quantization NEVER changes results: the
// quantized expanded-form distances only nominate candidates, the settle
// margin is widened by a rigorous per-call bound on the quantization error
// (see DotErrBoundQ8 / F32DotErrBound), and every surviving candidate is
// judged by the canonical f64 kernel — so winners, distances, and ties are
// bit-for-bit identical to the scalar scan on every input, exactly like
// the f64 blocked engine in gemm.go.

// Precision selects the candidate-generation rung of the blocked BMU
// search. The zero value is PrecisionAuto.
type Precision uint8

const (
	// PrecisionAuto lets the engine pick: int8 shadow arenas for
	// codebooks of at least QuantAutoMinBlock weights, the plain f64
	// engine below that (tiny codebooks cannot amortize the shadow-arena
	// build and per-record quantization).
	PrecisionAuto Precision = iota
	// PrecisionF64 forces the plain f64 blocked engine (no shadow arena).
	PrecisionF64
	// PrecisionF32 scores candidates against a float32-narrowed shadow
	// arena: half the weight traffic of f64.
	PrecisionF32
	// PrecisionI8 scores candidates against an int8 symmetric per-unit
	// quantized shadow arena with exact i32 dot accumulation: one eighth
	// the weight traffic of f64.
	PrecisionI8
)

// QuantAutoMinBlock is the units×dim codebook size at which PrecisionAuto
// engages the int8 shadow arena. Below it the quantization overhead
// (per-record code generation, error-bound evaluation) outweighs the
// traffic saved on a codebook that already fits in L1/L2.
const QuantAutoMinBlock = 4096

// quantI8MaxDim caps the int8 rung's dimension so the i32 dot
// accumulation provably cannot overflow: every code pair product is at
// most 127², so a dim-length sum stays far below 2³¹ for any dim up to
// this cap (and the asm kernel's per-lane VPMADDWD accumulation stays
// below 2³¹ up to ~10⁶). Wider inputs silently use the f64 engine.
const quantI8MaxDim = 1 << 16

// ParsePrecision parses a precision knob value: "auto" (or empty),
// "f64", "f32", or "i8".
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return PrecisionAuto, nil
	case "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	case "i8":
		return PrecisionI8, nil
	}
	return PrecisionAuto, fmt.Errorf("vecmath: invalid BMU precision %q (want f64, f32, i8, or auto)", s)
}

// String returns the knob spelling of the precision.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	case PrecisionI8:
		return "i8"
	default:
		return "auto"
	}
}

// Effective resolves the precision for a units×dim codebook: Auto engages
// int8 only for codebooks of at least QuantAutoMinBlock weights, and the
// int8 rung falls back to f64 beyond its accumulation-safe dimension cap.
func (p Precision) Effective(units, dim int) Precision {
	switch p {
	case PrecisionF32:
		return PrecisionF32
	case PrecisionI8:
		if dim > quantI8MaxDim {
			return PrecisionF64
		}
		return PrecisionI8
	case PrecisionAuto:
		if units*dim >= QuantAutoMinBlock && dim <= quantI8MaxDim {
			return PrecisionI8
		}
		return PrecisionF64
	default:
		return PrecisionF64
	}
}

// RecordElemBytes is the per-element width of the record tile the rung's
// kernel streams (the dim side of ResolveTileElem's cache-budget fit):
// 1 for int8 codes, 4 for narrowed float32 rows, 8 otherwise.
func (p Precision) RecordElemBytes() int {
	switch p {
	case PrecisionI8:
		return 1
	case PrecisionF32:
		return 4
	default:
		return 8
	}
}

// envPrecision reads the GHSOM_BMU_PRECISION escape hatch once. Invalid
// values are rejected with a one-time warning instead of being silently
// treated as a setting (the same validation contract as GHSOM_GEMM_TILE).
var envPrecision = sync.OnceValue(func() Precision {
	v := os.Getenv("GHSOM_BMU_PRECISION")
	if v == "" {
		return PrecisionAuto
	}
	p, err := ParsePrecision(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghsom: ignoring GHSOM_BMU_PRECISION=%q: want f64, f32, i8, or auto\n", v)
		return PrecisionAuto
	}
	return p
})

// EnvPrecision returns the validated GHSOM_BMU_PRECISION setting
// (PrecisionAuto when unset or invalid).
func EnvPrecision() Precision { return envPrecision() }

// ResolvePrecision applies the knob precedence: an explicit configured
// precision wins, an Auto config defers to GHSOM_BMU_PRECISION, and an
// unset environment leaves Auto (sized per codebook by Effective).
func ResolvePrecision(cfg Precision) Precision {
	if cfg != PrecisionAuto {
		return cfg
	}
	return EnvPrecision()
}

// QuantArena is one immutable reduced-precision shadow copy of a flat
// row-major weight arena, plus the per-unit error tables the settle
// margin needs. Built once per arena state (see QuantCache for mutable
// owners); safe for concurrent read-only use.
type QuantArena struct {
	prec       Precision
	dim, units int
	// stride is the padded row length of w32/q8: dim rounded up to the
	// kernel's vector width (16 codes / 8 floats), the pad lanes zero.
	// Zero pads are exact — they add nothing to either the integer or
	// the float dot — and let the micro-kernel cover whole rows with no
	// scalar tail (which otherwise dominates at awkward dims like 118).
	stride int
	// upad is units rounded up to the micro-kernel's 4-row group, the
	// pad rows all-zero, so the kernel never needs a unit tail either.
	// Score tiles are upad-strided; only the first units entries of a
	// row are meaningful.
	upad    int
	sqrtDim float64

	// w32 is the float32-narrowed arena (PrecisionF32 only), row stride
	// padded.
	w32 []float32
	// q8 holds the symmetric per-unit codes round(w/scale) in
	// [-127, 127] (PrecisionI8 only), row stride padded.
	q8 []int8
	// scale[u] is unit u's quantization step maxAbs(w_u)/127; the
	// dequantized weight is scale[u]*q8.
	scale []float64
	// rnorm[u] is the residual norm ‖w_u − scale[u]·q_u‖ — the exact
	// quantization error mass of unit u, the core term of the settle
	// margin's error bound.
	rnorm []float64
	// wqnorm[u] is ‖scale[u]·q_u‖, the dequantized-weight norm the
	// record-side residual multiplies in the bound's cross term.
	wqnorm []float64
	// maxR/maxWq are the arena-wide maxima of rnorm/wqnorm (NaN entries
	// from NaN-poisoned units excluded — such units can never win in any
	// kernel, so excluding them from the margin is safe, exactly like
	// MaxOrZero over the f64 norm table).
	maxR, maxWq float64
}

// BuildQuantArena quantizes the dim-wide rows of flat at the given rung.
// It returns nil when the precision has no shadow arena (F64/Auto — the
// caller resolves Auto via Effective first), the shape is degenerate, or
// the int8 dimension cap is exceeded; callers treat nil as "use the f64
// engine".
func BuildQuantArena(flat []float64, dim int, prec Precision) *QuantArena {
	if dim <= 0 {
		return nil
	}
	units := len(flat) / dim
	if units == 0 {
		return nil
	}
	qa := &QuantArena{prec: prec, dim: dim, units: units,
		upad: (units + 3) &^ 3, sqrtDim: math.Sqrt(float64(dim))}
	switch prec {
	case PrecisionF32:
		qa.stride = (dim + 7) &^ 7
		qa.w32 = make([]float32, qa.upad*qa.stride)
		for u := 0; u < units; u++ {
			NarrowRecord(flat[u*dim:(u+1)*dim], qa.w32[u*qa.stride:])
		}
	case PrecisionI8:
		if dim > quantI8MaxDim {
			return nil
		}
		qa.stride = (dim + 15) &^ 15
		qa.q8 = make([]int8, qa.upad*qa.stride)
		qa.scale = make([]float64, units)
		qa.rnorm = make([]float64, units)
		qa.wqnorm = make([]float64, units)
		for u := 0; u < units; u++ {
			s, rn, qn := quantizeQ8(flat[u*dim:(u+1)*dim], qa.q8[u*qa.stride:u*qa.stride+dim])
			qa.scale[u], qa.rnorm[u], qa.wqnorm[u] = s, rn, qn
		}
		qa.maxR = MaxOrZero(qa.rnorm)
		qa.maxWq = MaxOrZero(qa.wqnorm)
	default:
		return nil
	}
	return qa
}

// Precision returns the arena's rung.
func (qa *QuantArena) Precision() Precision { return qa.prec }

// Dim returns the quantized row width.
func (qa *QuantArena) Dim() int { return qa.dim }

// Units returns the quantized row count.
func (qa *QuantArena) Units() int { return qa.units }

// Scales returns the per-unit quantization steps (int8 rung only; nil
// otherwise). Read-only.
func (qa *QuantArena) Scales() []float64 { return qa.scale }

// Bytes returns the heap footprint of the shadow arena and its error
// tables — the NormBytes-style accounting hook. A nil arena reports 0.
func (qa *QuantArena) Bytes() int {
	if qa == nil {
		return 0
	}
	return len(qa.w32)*4 + len(qa.q8) + (len(qa.scale)+len(qa.rnorm)+len(qa.wqnorm))*8
}

// quantizeQ8 symmetric-quantizes one weight row: scale = maxAbs(w)/127,
// codes = round(w/scale) clamped to [-127, 127], with the residual norm
// ‖w − scale·q‖ and the dequantized norm ‖scale·q‖ computed in the same
// pass. NaN elements (ignored by the maxAbs scan) take code 0 and poison
// the norms to NaN, which excludes the unit from the arena maxima and —
// via its NaN f64 norm — from candidacy, matching the scalar kernels
// where such a unit can never win. An all-zero row quantizes exactly
// (scale 0, all codes 0). A row with ±Inf forces the whole arena's
// searches to the scalar path anyway (its f64 norm makes maxN infinite,
// failing every record's overflow guard), so its codes are never read.
func quantizeQ8(w []float64, dst []int8) (scale, residNorm, quantNorm float64) {
	m := maxAbs(w)
	if m == 0 || math.IsInf(m, 0) {
		for j := range dst {
			dst[j] = 0
		}
		if m == 0 {
			return 0, 0, 0
		}
		return 0, math.Inf(1), 0
	}
	scale = m / 127
	inv := 1 / scale
	var rs, qs float64
	for j, v := range w {
		q := math.Round(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		} else if q != q { // NaN element: code 0, residual poisons the norms
			q = 0
		}
		dst[j] = int8(q)
		wq := scale * q
		r := v - wq
		rs += r * r
		qs += wq * wq
	}
	return scale, math.Sqrt(rs), math.Sqrt(qs)
}

// maxAbs returns the largest absolute element under plain > comparison
// (NaN ignored), or 0 for an empty slice.
func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// QuantizeRecordQ8 quantizes one record row for the int8 rung: dst (at
// least len(x) codes) receives round(x/scale) with scale = maxAbs(x)/127,
// and the returned residual norm ‖x − scale·q‖ feeds the settle margin's
// error bound. Degenerate rows (±Inf, NaN) return a NaN/Inf residual;
// such rows fail the overflow guard before their codes are ever scored.
func QuantizeRecordQ8(x []float64, dst []int8) (scale, residNorm float64) {
	scale, residNorm, _ = quantizeQ8(x, dst)
	return scale, residNorm
}

// NarrowRecord narrows one record row to float32 for the f32 rung. dst
// must have at least len(x) elements.
func NarrowRecord(x []float64, dst []float32) {
	for j, v := range x {
		dst[j] = float32(v)
	}
}

// Stride returns the zero-padded row length of the shadow arena; record
// tiles handed to the MulBatch kernels must use the same stride with
// zeroed pad lanes.
func (qa *QuantArena) Stride() int { return qa.stride }

// UnitsPadded returns the unit count rounded up to the kernel's 4-row
// group — the row stride of the score tiles the MulBatch kernels fill.
func (qa *QuantArena) UnitsPadded() int { return qa.upad }

// MulBatchQ8 computes the raw integer dot block of the int8 rung:
// out[r*UnitsPadded()+u] = Σ_j xq[r*Stride()+j]·q8[u*Stride()+j],
// accumulated exactly in int32 and stored as float64 (exact — the sums
// are far below 2⁵³). xq holds rows Stride()-strided quantized record
// rows (QuantizeRecordQ8 plus zeroed pads); out must have
// rows*UnitsPadded() elements (entries past Units() in a row come from
// all-zero pad rows and are meaningless). The caller applies the
// scales: dot ≈ recScale·Scales()[u]·out[r*UnitsPadded()+u]. Computing
// over the full padded shape is exact — zero pads contribute nothing —
// and keeps whole rows and whole unit groups inside the vector
// micro-kernel with no scalar tails.
func (qa *QuantArena) MulBatchQ8(xq []int8, rows int, out []float64) {
	mulBatchQ8(xq, qa.q8, out, rows, qa.upad, qa.stride)
}

// MulBatchF32 computes the float32 dot block of the f32 rung:
// out[r*UnitsPadded()+u] = x32 row r · w32 row u, accumulated in float32
// with an unspecified association (multi-chain portable kernel or
// AVX2+FMA assembly) and widened exactly to float64. x32 holds rows
// Stride()-strided narrowed record rows (NarrowRecord plus zeroed pads);
// out must have rows*UnitsPadded() elements.
func (qa *QuantArena) MulBatchF32(x32 []float32, rows int, out []float64) {
	mulBatchF32(x32, qa.w32, out, rows, qa.upad, qa.stride)
}

// DotErrBoundQ8 bounds |x·w_u − xs·ws_u·(xq·q_u)| over every unit u of
// the int8 arena, for a record of norm √xn = sqrtXn quantized with
// residual norm residNorm. Writing x = x̃+e and w = w̃+r (dequantized
// value plus residual), the dot error is x̃·r + e·w̃ + e·r, so by
// Cauchy-Schwarz it is at most
//
//	(‖x‖+‖e‖)·max‖r‖ + ‖e‖·(max‖w̃‖ + max‖r‖)
//
// using ‖x̃‖ ≤ ‖x‖+‖e‖. The trailing 2⁻⁵⁰⁰-scale term covers the only
// way the computed norms can undercount the true ones: squares of
// deep-subnormal residual elements flushing to zero inside the norm
// sums, each of which loses at most 2⁻¹⁰⁷⁴ of squared mass per element.
// Ordinary rounding of the norms and of this formula itself is relative
// (~dim·2⁻⁵³) and covered by the QuantSettleSlack safety factor.
func (qa *QuantArena) DotErrBoundQ8(sqrtXn, residNorm float64) float64 {
	return (sqrtXn+residNorm)*qa.maxR + residNorm*(qa.maxWq+qa.maxR) +
		(sqrtXn+residNorm+qa.maxR+qa.maxWq+1)*qa.sqrtDim*0x1p-500
}

// F32DotErrBound bounds |x·w_u − d̃_u| over every unit for the f32 rung:
// narrowing both operands and accumulating ≤ dim+2 roundings at unit
// 2⁻²⁴ against Σ|x_j||w_j| ≤ √(xn·maxN) ≤ (xn+maxN)/2 gives the first
// term (stated with ≥4x headroom); the second covers all absolute
// (subnormal flush) errors, each at most ~2⁻¹⁴⁹·(|x_j|+|w_j|) per
// element, again with orders-of-magnitude headroom. Valid only under
// F32GuardOK, which also rules out overflow of any f32 intermediate.
func F32DotErrBound(dim int, xn, maxN float64) float64 {
	return float64(dim+8)*0x1p-23*(xn+maxN) +
		float64(dim)*0x1p-126*(math.Sqrt(xn)+math.Sqrt(maxN)+1)
}

// f32Guard is the magnitude ceiling of the f32 rung: with
// xn+maxN < MaxFloat32/4, every partial product and sum in the f32 dot
// is bounded by √(xn·maxN)·(1+ε) ≤ (xn+maxN)/2·(1+ε) < MaxFloat32, so
// nothing overflows and F32DotErrBound's error model holds.
const f32Guard = math.MaxFloat32 / 4

// F32GuardOK reports whether a record of squared norm xn may take the
// f32 candidate path against weights topping out at maxNorm2; written so
// NaN fails. Records failing it fall back per-row exactly like the f64
// engine's overflow guard.
func F32GuardOK(xn, maxNorm2 float64) bool { return xn+maxNorm2 < f32Guard }

// quantSafety inflates the quantization-error settle slack by one part
// in 2²⁰, covering the relative rounding (~dim·2⁻⁵³) of the error-bound
// formula and of the norm tables it reads. Like ExpandSettleRel, the
// inflation only ever admits extra candidates for the exact settle.
const quantSafety = 1 + 1.0/(1<<20)

// QuantSettleSlack converts a per-dot quantization error bound into the
// extra settle-margin width of the quantized candidate generator. Each
// expanded distance carries at most 2e of quantization error (the dot
// enters doubled), and the winner-vs-minimum comparison stacks the
// winner's and the nominee's errors, so 4e — inflated by quantSafety —
// guarantees the canonical winner is always admitted.
func QuantSettleSlack(e float64) float64 { return 4 * e * quantSafety }

// mulBatchQ8Generic is the portable int8 dot-block kernel: one record row
// against unit pairs, two independent i32 accumulator chains.
func mulBatchQ8Generic(xq, codes []int8, out []float64, n, units, dim int) {
	for r := 0; r < n; r++ {
		xr := xq[r*dim : (r+1)*dim]
		or := out[r*units : (r+1)*units]
		u := 0
		for ; u+2 <= units; u += 2 {
			w0 := codes[(u+0)*dim : (u+1)*dim]
			w1 := codes[(u+1)*dim : (u+2)*dim]
			var a0, a1 int32
			for j, v8 := range xr {
				v := int32(v8)
				a0 += v * int32(w0[j])
				a1 += v * int32(w1[j])
			}
			or[u], or[u+1] = float64(a0), float64(a1)
		}
		if u < units {
			w0 := codes[u*dim : (u+1)*dim]
			var a0 int32
			for j, v8 := range xr {
				a0 += int32(v8) * int32(w0[j])
			}
			or[u] = float64(a0)
		}
	}
}

// mulBatchF32Generic is the portable float32 dot-block kernel, the f32
// shape of mulBatchQ8Generic. Accumulation stays in float32 (that is the
// rung's error model); the widening to float64 on store is exact.
func mulBatchF32Generic(x32, w32 []float32, out []float64, n, units, dim int) {
	for r := 0; r < n; r++ {
		xr := x32[r*dim : (r+1)*dim]
		or := out[r*units : (r+1)*units]
		u := 0
		for ; u+2 <= units; u += 2 {
			w0 := w32[(u+0)*dim : (u+1)*dim]
			w1 := w32[(u+1)*dim : (u+2)*dim]
			var a0, a1 float32
			for j, v := range xr {
				a0 += v * w0[j]
				a1 += v * w1[j]
			}
			or[u], or[u+1] = float64(a0), float64(a1)
		}
		if u < units {
			w0 := w32[u*dim : (u+1)*dim]
			var a0 float32
			for j, v := range xr {
				a0 += v * w0[j]
			}
			or[u] = float64(a0)
		}
	}
}

// quantSnapshot is one immutable generation of a QuantCache: the shadow
// arena of a specific (version, dim, units, precision) state. Like
// normSnapshot, it is never mutated after publication.
type quantSnapshot struct {
	version uint64
	dim     int
	units   int
	prec    Precision
	arena   *QuantArena // nil when the shape refused to quantize
}

// QuantCache is the shadow-arena sibling of NormCache: a versioned,
// lock-free, copy-on-invalidate cache of one BuildQuantArena result,
// keyed by the owner's mutation counter plus the arena shape and the
// requested rung. The staleness contract is identical to NormCache —
// every weight mutation bumps the owner's version, so a mutated arena
// re-quantizes lazily on the next Sync and a stale shadow is
// structurally impossible; concurrent first-touch syncs may race to
// publish identical snapshots, which is benign. The zero QuantCache is
// ready to use.
type QuantCache struct {
	snap atomic.Pointer[quantSnapshot]
}

// Sync returns the shadow arena of flat's current state at the given
// rung, rebuilding it only when the version, shape, or precision differs
// from the cached snapshot. The returned arena (possibly nil for shapes
// that refuse to quantize) is immutable and stays valid even if another
// goroutine invalidates the cache.
func (c *QuantCache) Sync(flat []float64, dim int, version uint64, prec Precision) *QuantArena {
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	if s := c.snap.Load(); s != nil && s.version == version && s.dim == dim && s.units == units && s.prec == prec {
		return s.arena
	}
	s := &quantSnapshot{version: version, dim: dim, units: units, prec: prec,
		arena: BuildQuantArena(flat, dim, prec)}
	c.snap.Store(s)
	return s.arena
}

// ArgMinDistanceBatchQuant is the package-level form of the quantized
// batch search, servicing callers without worker identity from the
// shared scratch pool (see the BMUScratch method).
func ArgMinDistanceBatchQuant(x View, flat []float64, norms []float64, qa *QuantArena, out []int, outDist []float64) {
	sc := bmuBatchPool.Get().(*BMUScratch)
	sc.ArgMinDistanceBatchQuant(x, flat, norms, qa, out, outDist)
	bmuBatchPool.Put(sc)
}

// ArgMinDistanceBatchQuant runs the batched BMU search with quantized
// candidate generation: per tile, record rows are quantized (int8 codes
// with residual norms) or narrowed (float32), the reduced-precision dot
// block replaces MulBatchT, and the settle margin is widened by the
// rigorous quantization-error bound before the canonical settle — so
// results stay bit-for-bit identical to ArgMinDistance per row, exactly
// like the f64 engine (same contract as ArgMinDistanceBatch, including
// nil out/outDist and the index-only single-candidate fast path). A nil,
// mismatched, or f64 arena simply runs the plain engine.
func (s *BMUScratch) ArgMinDistanceBatchQuant(x View, flat []float64, norms []float64, qa *QuantArena, out []int, outDist []float64) {
	n := x.Rows()
	if n == 0 {
		return
	}
	dim := x.Dim()
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	if qa == nil || units == 0 || units*dim < gemmMinBlock ||
		qa.dim != dim || qa.units != units ||
		(qa.prec != PrecisionF32 && qa.prec != PrecisionI8) {
		s.ArgMinDistanceBatch(x, flat, norms, out, outDist)
		return
	}
	if norms == nil {
		s.norms = SquaredNorms(flat, dim, s.norms[:0])
		norms = s.norms
	}
	maxN := MaxOrZero(norms)
	tile := s.Tile.Rows()
	if n < tile {
		tile = n
	}
	upad := qa.upad
	if cap(s.scores) < tile*upad {
		s.scores = make([]float64, tile*upad)
	}
	i8 := qa.prec == PrecisionI8
	for lo := 0; lo < n; lo += tile {
		hi := lo + tile
		if hi > n {
			hi = n
		}
		sub := x.Slice(lo, hi)
		rows := hi - lo
		scores := s.scores[:rows*upad]
		rowScale, rowResid := s.QuantDots(sub, qa, scores)
		for i := 0; i < rows; i++ {
			xi := sub.Row(i)
			var best int
			var bestVal float64
			if i8 {
				best, bestVal = settleRowQ8(xi, flat, norms, maxN, qa,
					rowScale[i], rowResid[i], scores[i*upad:i*upad+units], dim, outDist != nil)
			} else {
				best, bestVal = settleRowF32(xi, flat, norms, maxN,
					scores[i*upad:i*upad+units], dim, outDist != nil)
			}
			if out != nil {
				out[lo+i] = best
			}
			if outDist != nil {
				outDist[lo+i] = bestVal
			}
		}
	}
}

// QuantDots runs the reduced-precision dot step of quantized candidate
// generation for the rows of x (one tile): each record row is quantized
// to int8 codes or narrowed to float32 into the scratch, its pad lanes
// zeroed (the scratch may have held another shape), and the arena's dot
// block fills scores, which must have x.Rows()*qa.UnitsPadded() elements
// (raw integer dots for int8, widened float32 dots otherwise). For the
// int8 rung it also returns each row's quantization scale and residual
// norm — the settle margin's inputs, valid until the next call on s —
// and nil tables for float32. qa must be an int8 or float32 arena of
// x.Dim()-wide rows.
func (s *BMUScratch) QuantDots(x View, qa *QuantArena, scores []float64) (rowScale, rowResid []float64) {
	rows, dim, stride := x.Rows(), qa.dim, qa.stride
	if qa.prec != PrecisionI8 {
		if cap(s.x32) < rows*stride {
			s.x32 = make([]float32, rows*stride)
		}
		x32 := s.x32[:rows*stride]
		for i := 0; i < rows; i++ {
			NarrowRecord(x.Row(i), x32[i*stride:i*stride+dim])
			clear(x32[i*stride+dim : (i+1)*stride])
		}
		qa.MulBatchF32(x32, rows, scores)
		return nil, nil
	}
	if cap(s.xq) < rows*stride {
		s.xq = make([]int8, rows*stride)
	}
	if cap(s.rowScale) < rows {
		s.rowScale = make([]float64, rows)
		s.rowResid = make([]float64, rows)
	}
	xq := s.xq[:rows*stride]
	rowScale, rowResid = s.rowScale[:rows], s.rowResid[:rows]
	for i := 0; i < rows; i++ {
		rowScale[i], rowResid[i] = QuantizeRecordQ8(x.Row(i), xq[i*stride:i*stride+dim])
		clear(xq[i*stride+dim : (i+1)*stride])
	}
	qa.MulBatchQ8(xq, rows, scores)
	return rowScale, rowResid
}

// settleRowQ8 is settleRow for the int8 rung: raw integer dots in dots
// are rescaled into expanded distances, and the settle threshold is
// widened by the record's rigorous quantization-error slack before the
// shared candidate settle. Degenerate magnitudes fall back to the scalar
// scan exactly like settleRow.
func settleRowQ8(xi, flat, norms []float64, maxN float64, qa *QuantArena, xs, exn float64, dots []float64, dim int, needDist bool) (int, float64) {
	xn := sumSquares(xi)
	if !(xn+maxN < overflowGuard) {
		return ArgMinDistance(xi, flat)
	}
	minD := rescaleMinQ8(dots, norms, qa.scale, xn, xs)
	thr := minD + ExpandSettleRel*(xn+maxN) + QuantSettleSlack(qa.DotErrBoundQ8(math.Sqrt(xn), exn))
	return settleCandidates(xi, flat, dots, thr, dim, needDist)
}

// settleRowF32 is settleRow for the f32 rung: the widened dots are
// already plain expanded dot products, and the margin grows by the f32
// rung's dimension-scaled error slack. Rows outside the f32 magnitude
// guard (where narrowing could overflow) fall back to the scalar scan.
func settleRowF32(xi, flat, norms []float64, maxN float64, dots []float64, dim int, needDist bool) (int, float64) {
	xn := sumSquares(xi)
	if !(xn+maxN < overflowGuard) || !F32GuardOK(xn, maxN) {
		return ArgMinDistance(xi, flat)
	}
	minD := math.Inf(1)
	for u, nrm := range norms {
		d := xn + nrm - 2*dots[u]
		dots[u] = d
		if d < minD {
			minD = d
		}
	}
	thr := minD + ExpandSettleRel*(xn+maxN) + QuantSettleSlack(F32DotErrBound(dim, xn, maxN))
	return settleCandidates(xi, flat, dots, thr, dim, needDist)
}
