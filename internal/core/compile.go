package core

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"ghsom/internal/parallel"
	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// This file implements the compiled model representation: a trained GHSOM
// packed into one shared row-major weight arena plus flat routing tables,
// so the hierarchy descent — the per-record hot loop of serving — runs as
// one blocked, level-synchronous, table-driven pass with zero pointer
// chasing, zero map lookups, and zero per-record allocations. Placements
// are byte-identical to the pointer-tree walk (GHSOM.RouteTrained):
// matrix-product scores only nominate candidates, and every winner is
// settled by the canonical distance kernel the tree walk uses.

// compiledNode is one map of the hierarchy in the flat node table. All
// offsets index the Compiled arrays, never the heap.
type compiledNode struct {
	// weightOff is the node's first weight in the arena (float64 offset);
	// unit u of this node occupies arena[weightOff+u*dim : +dim].
	weightOff int
	// unitBase is the node's first entry in the per-unit tables
	// (childIndex, counts, unitQE): unit u is at index unitBase+u.
	unitBase int
	// units is rows*cols.
	units int
	// rows, cols is the grid shape.
	rows, cols int
	// depth is the node's layer (root = 1).
	depth int
	// parent is the parent node index (-1 for the root), parentUnit the
	// unit of the parent map this node expands.
	parent, parentUnit int
	// trainedBase/trainedLen delimit the node's slice of trainedIdx: the
	// ascending unit indices that won at least one training record (the
	// effective codebook of RouteTrained).
	trainedBase, trainedLen int
}

// Compiled is a trained GHSOM compiled for serving: every map's weights
// from all levels live in one contiguous row-major arena, and the
// hierarchy is a flat node table plus a flat child index (one int32 per
// unit, -1 = leaf). Routing methods produce placements byte-identical to
// the equivalent *GHSOM tree walk at every Parallelism setting. A
// Compiled is immutable after construction and safe for concurrent use.
type Compiled struct {
	cfg  Config
	dim  int
	mean []float64
	mqe0 float64

	nodes []compiledNode
	// childIndex[unitBase+u] is the node index of the child expanding
	// unit u, or -1 when the unit is a leaf.
	childIndex []int32
	// counts[unitBase+u] is the number of training records unit u won.
	counts []int64
	// unitQE[unitBase+u] is the unit's mean training quantization error.
	unitQE []float64
	// trainedIdx holds, per node, the ascending unit indices with
	// counts > 0 (see compiledNode.trainedBase/trainedLen).
	trainedIdx []int32
	// norms[unitBase+u] is the squared Euclidean norm of unit u's arena
	// row — the ‖w‖² term of the blocked batch descent's expanded-form
	// BMU search. A Compiled is immutable, so unlike som.Map's versioned
	// NormCache these can never go stale. Derived, never serialized.
	norms []float64
	// nodeMaxNorm[i] is the largest squared unit norm of node i, the
	// magnitude term of the batch descent's settle margin and overflow
	// guard. Derived, never serialized.
	nodeMaxNorm []float64
	// quant[i] is node i's reduced-precision shadow codebook for the
	// descent's candidate generation, or nil where the resolved BMU
	// precision leaves the node on the f64 engine (tiny codebooks under
	// auto). Like the norm tables: derived from the arena in
	// buildNormTables, never serialized, and immutable once built —
	// placements stay byte-identical because quantized scores only
	// nominate candidates for the canonical settle.
	quant []*vecmath.QuantArena
	// tile is the GEMM block shape of the batch descent, resolved at
	// compile/load time from the model's widest codebook and the
	// machine's core count (vecmath.ResolveTile). Tile size never
	// affects placements — the expanded form only nominates candidates —
	// so the resolution is free to chase cache fit. Derived, never
	// serialized.
	tile vecmath.TileConfig
	// arena is the shared weight storage: totalUnits*dim float64s. For a
	// heap-loaded model it is owned storage; for a zero-copy load (see
	// ReadCompiledBinaryBytes) it is a read-only view over the caller's
	// mapping, as are counts and unitQE.
	arena []float64
	// viewBytes is how many bytes of the model alias the source buffer
	// of a zero-copy load (0 when fully heap-resident).
	viewBytes int
}

// Compile packs a trained hierarchy into its compiled representation.
// The model is copied; the Compiled shares no storage with g.
func Compile(g *GHSOM) *Compiled {
	c := &Compiled{
		cfg:  g.cfg,
		dim:  g.dim,
		mean: append([]float64(nil), g.mean...),
		mqe0: g.mqe0,
	}
	total := 0
	for _, n := range g.nodes {
		total += n.Map.Units()
	}
	c.nodes = make([]compiledNode, len(g.nodes))
	c.childIndex = make([]int32, total)
	c.counts = make([]int64, total)
	c.unitQE = make([]float64, total)
	c.arena = make([]float64, total*g.dim)
	base := 0
	for i, n := range g.nodes {
		units := n.Map.Units()
		cn := compiledNode{
			weightOff:  base * g.dim,
			unitBase:   base,
			units:      units,
			rows:       n.Map.Rows(),
			cols:       n.Map.Cols(),
			depth:      n.Depth,
			parent:     -1,
			parentUnit: n.ParentUnit,
		}
		copy(c.arena[cn.weightOff:cn.weightOff+units*g.dim], n.Map.Weights())
		for u := 0; u < units; u++ {
			c.childIndex[base+u] = -1
			if u < len(n.UnitCount) {
				c.counts[base+u] = int64(n.UnitCount[u])
			}
			if u < len(n.UnitQE) {
				c.unitQE[base+u] = n.UnitQE[u]
			}
		}
		c.nodes[i] = cn
		base += units
	}
	for i, n := range g.nodes {
		for u, ch := range n.Children {
			c.childIndex[c.nodes[i].unitBase+u] = int32(ch.ID)
			c.nodes[ch.ID].parent = i
			c.nodes[ch.ID].parentUnit = u
		}
	}
	c.buildTrainedIndex()
	return c
}

// buildTrainedIndex derives the per-node effective-codebook unit lists
// from the counts table, then the norm and quantized tables of the
// descent.
func (c *Compiled) buildTrainedIndex() {
	c.trainedIdx = c.trainedIdx[:0]
	for i := range c.nodes {
		nd := &c.nodes[i]
		nd.trainedBase = len(c.trainedIdx)
		for u := 0; u < nd.units; u++ {
			if c.counts[nd.unitBase+u] > 0 {
				c.trainedIdx = append(c.trainedIdx, int32(u))
			}
		}
		nd.trainedLen = len(c.trainedIdx) - nd.trainedBase
	}
	c.buildNormTables()
}

// buildNormTables precomputes the per-unit squared weight norms and the
// per-node maxima that feed the blocked batch descent's expanded-form
// candidate generator, and resolves the descent's GEMM tile shape for
// this model on this machine (every load path — Compile and both
// deserializers — funnels through here). Derived deterministically from
// the arena.
func (c *Compiled) buildNormTables() {
	c.norms = vecmath.SquaredNorms(c.arena, c.dim, c.norms[:0])
	if cap(c.nodeMaxNorm) < len(c.nodes) {
		c.nodeMaxNorm = make([]float64, len(c.nodes))
	}
	c.nodeMaxNorm = c.nodeMaxNorm[:len(c.nodes)]
	maxUnits := 0
	for i := range c.nodes {
		nd := &c.nodes[i]
		c.nodeMaxNorm[i] = vecmath.MaxOrZero(c.norms[nd.unitBase : nd.unitBase+nd.units])
		if nd.units > maxUnits {
			maxUnits = nd.units
		}
	}
	// Per-node quantized shadow codebooks: the configured precision
	// (after GHSOM_BMU_PRECISION resolution) is sized per node, so under
	// auto only codebooks big enough to pay for quantization carry an
	// arena and the rest stay nil (f64 engine). Derived here with the
	// other tables so every load path gets them; never serialized.
	prec := vecmath.ResolvePrecision(c.cfg.BMUPrecision)
	c.quant = make([]*vecmath.QuantArena, len(c.nodes))
	for i := range c.nodes {
		nd := &c.nodes[i]
		if eff := prec.Effective(nd.units, c.dim); eff != vecmath.PrecisionF64 {
			c.quant[i] = vecmath.BuildQuantArena(
				c.arena[nd.weightOff:nd.weightOff+nd.units*c.dim], c.dim, eff)
		}
	}
	// Sized for the widest codebook of the hierarchy (the root dominates
	// the descent's GEMM work) under the machine's full worker budget —
	// the routing pool's steady-state concurrency — at the record element
	// width of that codebook's resolved precision.
	c.tile = vecmath.ResolveTileElem(c.dim, maxUnits, parallel.Resolve(0),
		prec.Effective(maxUnits, c.dim).RecordElemBytes())
}

// SetBMUPrecision reconfigures the candidate-generation precision of the
// descent and rebuilds the derived quantized tables. Placements are
// bit-identical at every setting; the knob only moves the
// speed/footprint point, like SetParallelism on the pipeline. Not safe
// to call concurrently with routing — reconfigure at load time or
// behind the owner's swap mechanism.
func (c *Compiled) SetBMUPrecision(p vecmath.Precision) {
	c.cfg.BMUPrecision = p
	c.buildNormTables()
}

// BMUPrecision returns the effective candidate-generation rung of the
// model's widest codebook (which dominates descent work) under the
// configured precision and environment — what an operator should read
// as "the precision this model routes at".
func (c *Compiled) BMUPrecision() vecmath.Precision {
	maxUnits := 0
	for i := range c.nodes {
		if c.nodes[i].units > maxUnits {
			maxUnits = c.nodes[i].units
		}
	}
	return vecmath.ResolvePrecision(c.cfg.BMUPrecision).Effective(maxUnits, c.dim)
}

// Dim returns the input dimension.
func (c *Compiled) Dim() int { return c.dim }

// Config returns the configuration the model was trained with.
func (c *Compiled) Config() Config { return c.cfg }

// MQE0 returns the layer-0 quantization error.
func (c *Compiled) MQE0() float64 { return c.mqe0 }

// Mean returns a copy of the layer-0 mean vector.
func (c *Compiled) Mean() []float64 { return append([]float64(nil), c.mean...) }

// NumNodes returns the number of maps in the hierarchy.
func (c *Compiled) NumNodes() int { return len(c.nodes) }

// TotalUnits returns the number of units across all maps — the length of
// the per-unit tables and the arena row count.
func (c *Compiled) TotalUnits() int { return len(c.childIndex) }

// NodeUnits returns the unit count of node id, or 0 when out of range.
func (c *Compiled) NodeUnits(id int) int {
	if id < 0 || id >= len(c.nodes) {
		return 0
	}
	return c.nodes[id].units
}

// UnitWeight returns a copy of the weight vector of the given unit, or
// nil when the (node, unit) pair does not exist.
func (c *Compiled) UnitWeight(nodeID, unit int) []float64 {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return nil
	}
	nd := &c.nodes[nodeID]
	if unit < 0 || unit >= nd.units {
		return nil
	}
	off := nd.weightOff + unit*c.dim
	return append([]float64(nil), c.arena[off:off+c.dim]...)
}

// ArenaBytes returns the memory footprint of the shared weight arena.
func (c *Compiled) ArenaBytes() int { return len(c.arena) * 8 }

// TableBytes returns the memory footprint of the routing tables (node
// table, child index, counts, unit errors, trained unit lists, and the
// norm and quantized caches of the descent).
func (c *Compiled) TableBytes() int {
	return len(c.nodes)*int(unsafe.Sizeof(compiledNode{})) +
		len(c.childIndex)*4 +
		len(c.counts)*8 +
		len(c.unitQE)*8 +
		len(c.trainedIdx)*4 +
		c.NormBytes() +
		c.QuantBytes()
}

// NormBytes returns the memory footprint of the norm caches the blocked
// batch descent tiles over: the per-unit squared-norm table plus the
// per-node maxima.
func (c *Compiled) NormBytes() int {
	return len(c.norms)*8 + len(c.nodeMaxNorm)*8
}

// QuantBytes returns the memory footprint of the quantized shadow
// codebooks of the descent's candidate generation (0 when the resolved
// precision leaves every node on the f64 engine).
func (c *Compiled) QuantBytes() int {
	total := 0
	for _, qa := range c.quant {
		total += qa.Bytes()
	}
	return total
}

// BlockShape describes the GEMM block of one hierarchy level as the
// blocked batch descent tiles it: at a level (depth), each record group
// routed into one of Nodes maps is scored against a units×dim weight
// block.
type BlockShape struct {
	// Depth is the level (root = 1).
	Depth int
	// Nodes is the number of maps at the level.
	Nodes int
	// MinUnits and MaxUnits bound the per-node unit counts (GEMM block
	// heights) at the level.
	MinUnits, MaxUnits int
	// Dim is the block width (the feature dimension).
	Dim int
	// WeightBytes is the total weight storage of the level's blocks.
	WeightBytes int
}

// BlockShapes reports, per level, the units×dim GEMM block shapes the
// batch descent will tile — the operator's view of what the engine
// multiplies at each step of the hierarchy.
func (c *Compiled) BlockShapes() []BlockShape {
	var out []BlockShape
	for i := range c.nodes {
		nd := &c.nodes[i]
		for len(out) < nd.depth {
			out = append(out, BlockShape{Depth: len(out) + 1, Dim: c.dim})
		}
		b := &out[nd.depth-1]
		b.Nodes++
		if b.MinUnits == 0 || nd.units < b.MinUnits {
			b.MinUnits = nd.units
		}
		if nd.units > b.MaxUnits {
			b.MaxUnits = nd.units
		}
		b.WeightBytes += nd.units * c.dim * 8
	}
	return out
}

// Stats computes the same structure statistics as GHSOM.Stats from the
// flat tables.
func (c *Compiled) Stats() Stats {
	var s Stats
	for i := range c.nodes {
		nd := &c.nodes[i]
		s.Maps++
		s.Units += nd.units
		if nd.depth > s.MaxDepth {
			s.MaxDepth = nd.depth
		}
		for len(s.MapsPerDepth) < nd.depth {
			s.MapsPerDepth = append(s.MapsPerDepth, 0)
			s.UnitsPerDepth = append(s.UnitsPerDepth, 0)
		}
		s.MapsPerDepth[nd.depth-1]++
		s.UnitsPerDepth[nd.depth-1] += nd.units
		if nd.units > s.LargestMapUnits {
			s.LargestMapUnits = nd.units
		}
		for u := 0; u < nd.units; u++ {
			if c.childIndex[nd.unitBase+u] < 0 {
				s.LeafUnits++
			}
		}
	}
	if s.Maps > 0 {
		s.MeanMapUnits = float64(s.Units) / float64(s.Maps)
	}
	return s
}

// bmu is the canonical BMU search of one compiled node, mirroring the
// tree walk step for step: som.Map.BMUMasked over the trained units,
// falling back to som.Map.BMU over the full map when none trained or none
// yields a comparable distance (including BMU's all-NaN contract of
// reporting unit 0). It serves single-record RouteTrained and the
// settle's degenerate-input fallback.
func (c *Compiled) bmu(x []float64, nd *compiledNode) (int, float64) {
	best, bestVal := -1, math.Inf(1)
	for _, u := range c.trainedIdx[nd.trainedBase : nd.trainedBase+nd.trainedLen] {
		if d := vecmath.SquaredDistanceFlat(x, c.arena, nd.weightOff+int(u)*c.dim); d < bestVal {
			best, bestVal = int(u), d
		}
	}
	if best >= 0 {
		return best, bestVal
	}
	best, bestVal = vecmath.ArgMinDistance(x, c.arena[nd.weightOff:nd.weightOff+nd.units*c.dim])
	if best < 0 {
		return 0, bestVal
	}
	return best, bestVal
}

// RouteTrained descends through the effective codebook (units that won
// training data, falling back to the full map when a node has none),
// exactly like GHSOM.RouteTrained, with byte-identical placements.
func (c *Compiled) RouteTrained(x []float64) Placement {
	if len(x) != c.dim {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	ni := 0
	for {
		nd := &c.nodes[ni]
		bmu, d2 := c.bmu(x, nd)
		child := c.childIndex[nd.unitBase+bmu]
		if child < 0 {
			return Placement{NodeID: ni, Unit: bmu, Depth: nd.depth, QE: math.Sqrt(d2)}
		}
		ni = int(child)
	}
}

// routeScratchPool recycles the per-worker state of the blocked batch
// descent: the duplicate-row index, the per-record descent state, and
// the GEMM score tiles. The maps are cleared before being pooled, so no
// caller memory is retained across calls.
var routeScratchPool = sync.Pool{
	New: func() any { return &routeScratch{seen: make(map[string]int, 512)} },
}

type routeScratch struct {
	seen   map[string]int
	ref    []int32   // per chunk row: chunk-relative representative (dedup)
	xn     []float64 // per unique row: squared record norm
	cur    []int32   // per unique row: current node of the descent
	act    []int32   // active unique rows (not yet placed)
	nxt    []int32   // next level's active rows (double buffer)
	counts []int32   // per node: counting-sort state
	order  []int32   // active rows grouped by node
	gidx   []int     // absolute matrix rows of one GEMM tile
	allIdx []int32   // 0..units-1 candidate set for untrained nodes
	scores []float64 // GEMM tile: records×units dots, then expanded distances
	// quant holds the per-tile record codes or narrowed rows of the
	// quantized candidate generator (see vecmath.BMUScratch.QuantDots).
	quant vecmath.BMUScratch
}

// RouteTrainedFlat routes every row of the flat row-major batch through
// the effective codebook into out — the compiled counterpart of
// GHSOM.RouteTrainedFlat, with byte-identical placements at every
// parallelism setting and zero per-row steady-state allocation.
//
// The descent is level-synchronous and blocked: within a worker chunk,
// records are deduplicated (byte-identical rows — common in real
// traffic, where a flood repeats one encoded vector — are routed once),
// then all records sitting at the same node of the hierarchy are scored
// against that node's units×dim weight block with one blocked
// expanded-form matrix product per tile (vecmath.MulBatchT, or the
// node's quantized shadow codebook, plus the compiled norm tables).
// Expanded distances only nominate candidates; winners are settled with
// the canonical kernel, interior levels skip the canonical scan entirely
// when a single candidate survives the margin, and records whose
// magnitudes fall outside the expanded form's error model take the
// canonical scan, so placements stay byte-identical to the per-record
// tree walk. The dedup index keys alias the caller's flat buffer only for
// the duration of the call (the caller must not mutate flat concurrently,
// which the batch contract already requires) and are dropped before the
// scratch returns to its pool.
func (c *Compiled) RouteTrainedFlat(flat []float64, n int, out []Placement, parallelism int) error {
	if err := c.checkFlat(flat, n, out); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	mat, err := vecmath.MatrixOver(flat, n, c.dim)
	if err != nil {
		return fmt.Errorf("core: route flat batch: %w", err)
	}
	// Chunk cap: keeps each worker's duplicate index small enough to stay
	// cache-resident (duplicate traffic clusters in time, so locality is
	// preserved), and spreads big batches across workers. Each worker
	// claims one pooled scratch for the whole call and chunks are handed
	// out by the work-stealing chunked scheduler, so the per-chunk path
	// touches no pool and no lock; placements are per-slot writes,
	// byte-identical at every worker count.
	const routeChunk = 2048
	w := parallel.Workers(parallelism, n)
	grain := (n + w - 1) / w
	if grain > routeChunk {
		grain = routeChunk
	}
	scratches := make([]*routeScratch, parallel.WorkersGrain(parallelism, n, grain))
	for i := range scratches {
		scratches[i] = routeScratchPool.Get().(*routeScratch)
	}
	parallel.ForEachChunk(parallelism, n, grain, func(wk, lo, hi int) {
		c.routeTrainedChunk(mat, lo, hi, out, scratches[wk])
	})
	for _, sc := range scratches {
		routeScratchPool.Put(sc)
	}
	return nil
}

// grow32 resizes buf to n int32s, reallocating only on capacity growth.
func grow32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growF is grow32 for float64 scratch.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// routeTrainedChunk runs the deduplicated level-synchronous descent for
// chunk rows [lo, hi) of mat, writing placements into out at absolute
// row positions.
func (c *Compiled) routeTrainedChunk(mat vecmath.Matrix, lo, hi int, out []Placement, sc *routeScratch) {
	m := hi - lo
	ref := grow32(&sc.ref, m)
	xn := growF(&sc.xn, m)
	cur := grow32(&sc.cur, m)
	act := sc.act[:0]
	for i := 0; i < m; i++ {
		row := mat.Row(lo + i)
		key := unsafe.String((*byte)(unsafe.Pointer(&row[0])), len(row)*8)
		if j, ok := sc.seen[key]; ok {
			ref[i] = int32(j)
			continue
		}
		sc.seen[key] = i
		ref[i] = int32(i)
		cur[i] = 0
		xn[i] = vecmath.SumSquares(row)
		act = append(act, int32(i))
	}
	clear(sc.seen)

	nodes := len(c.nodes)
	counts := grow32(&sc.counts, nodes)
	for len(act) > 0 {
		// Counting sort groups the active records by their current node:
		// one pass to count, one stable scatter pass. Every record at the
		// same node then shares that node's GEMM blocks this level.
		for i := range counts {
			counts[i] = 0
		}
		for _, r := range act {
			counts[cur[r]]++
		}
		sum := int32(0)
		for ni := 0; ni < nodes; ni++ {
			cnt := counts[ni]
			counts[ni] = sum
			sum += cnt
		}
		order := grow32(&sc.order, len(act))
		for _, r := range act {
			order[counts[cur[r]]] = r
			counts[cur[r]]++
		}
		nxt := sc.nxt[:0]
		start := int32(0)
		for ni := 0; ni < nodes && int(start) < len(order); ni++ {
			end := counts[ni] // post-scatter: end offset of node ni's group
			if end == start {
				continue
			}
			nxt = c.routeLevelNode(mat, lo, ni, order[start:end], xn, cur, out, nxt, sc)
			start = end
		}
		sc.act = act
		act = nxt
		sc.act, sc.nxt = nxt, sc.act
	}
	sc.act = act[:0]

	// Replay the placements of deduplicated rows.
	for i := 0; i < m; i++ {
		if int(ref[i]) != i {
			out[lo+i] = out[lo+int(ref[i])]
		}
	}
}

// routeLevelNode advances one node's record group by one level: the
// group is scored in tiles of the model's resolved tile rows against the
// node's weight block — the f64 arena, or the node's quantized shadow
// codebook when it has one — each record's BMU is settled exactly, and
// records descending into a child are appended to nxt.
func (c *Compiled) routeLevelNode(mat vecmath.Matrix, lo, ni int, group []int32, xn []float64, cur []int32, out []Placement, nxt []int32, sc *routeScratch) []int32 {
	nd := &c.nodes[ni]
	// The candidate set is the effective codebook; a node with no trained
	// units falls back to the full map, exactly like the tree walk.
	units := c.trainedIdx[nd.trainedBase : nd.trainedBase+nd.trainedLen]
	if len(units) == 0 {
		units = grow32(&sc.allIdx, nd.units)
		for u := range units {
			units[u] = int32(u)
		}
	}
	qa := c.quant[ni]
	stride := nd.units // score row stride: the quantized kernels pad it
	if qa != nil {
		stride = qa.UnitsPadded()
	}
	tileRows := c.tile.Rows()
	for gLo := 0; gLo < len(group); gLo += tileRows {
		blk := group[gLo:min(gLo+tileRows, len(group))]
		gidx := sc.gidx[:0]
		for _, r := range blk {
			gidx = append(gidx, lo+int(r))
		}
		sc.gidx = gidx
		tile := mat.Subset(gidx)
		scores := growF(&sc.scores, len(blk)*stride)
		var rowScale, rowResid []float64
		if qa != nil {
			rowScale, rowResid = sc.quant.QuantDots(tile, qa, scores)
		} else {
			vecmath.MulBatchT(tile, c.arena[nd.weightOff:nd.weightOff+nd.units*c.dim], scores)
		}
		for k, r := range blk {
			row := tile.Row(k)
			var xs, exn float64
			if rowScale != nil {
				xs, exn = rowScale[k], rowResid[k]
			}
			bmu, d2, haveD2 := c.settle(row, xn[r], ni, units, xs, exn, scores[k*stride:k*stride+nd.units])
			nxt = c.stepRecord(ni, nd, int(r), bmu, d2, haveD2, row, cur, out, lo, nxt)
		}
	}
	return nxt
}

// stepRecord places record r at its leaf or descends it one level. When
// the settle skipped the canonical distance (haveD2 false, interior
// fast path) and the unit turns out to be a leaf, the canonical distance
// of the winner is computed here — exactly one canonical scan per
// record, at the only level whose QE is observable.
func (c *Compiled) stepRecord(ni int, nd *compiledNode, r, bmu int, d2 float64, haveD2 bool, row []float64, cur []int32, out []Placement, lo int, nxt []int32) []int32 {
	child := c.childIndex[nd.unitBase+bmu]
	if child < 0 {
		if !haveD2 {
			d2 = vecmath.SquaredDistanceFlat(row, c.arena, nd.weightOff+bmu*c.dim)
		}
		out[lo+r] = Placement{NodeID: ni, Unit: bmu, Depth: nd.depth, QE: math.Sqrt(d2)}
		return nxt
	}
	cur[r] = child
	return append(nxt, int32(r))
}

// settle resolves one record's BMU at node ni from its tile dot row,
// byte-identically to the canonical bmu scan: expanded-form distances
// nominate candidates within the settle margin, the canonical kernel
// judges them (ties to the lowest unit index), and degenerate magnitudes
// or all-NaN candidates fall back to bmu itself. units is the ascending
// candidate set — the node's trained units, or every unit when none
// trained. On a quantized node the dots are the shadow codebook's (int8
// dots rescaled here by the record scale xs and the unit scales; float32
// dots used as is) and the margin widens by the rung's rigorous dot-error
// bound (exn is the int8 record's residual norm), so the true winner can
// never be screened out. haveD2 reports whether d2 is the settled
// canonical distance; it is false on the interior fast path where a
// single candidate survived and no canonical scan was needed. dots is
// overwritten with expanded distances.
func (c *Compiled) settle(row []float64, xn float64, ni int, units []int32, xs, exn float64, dots []float64) (int, float64, bool) {
	nd := &c.nodes[ni]
	norms := c.norms[nd.unitBase : nd.unitBase+nd.units]
	maxN := c.nodeMaxNorm[ni]
	guardOK := vecmath.ExpandGuardOK(xn, maxN)
	var slack float64
	if qa := c.quant[ni]; guardOK && qa != nil {
		if qa.Precision() == vecmath.PrecisionI8 {
			scales := qa.Scales()
			for _, u := range units {
				dots[u] = xs * scales[u] * dots[u]
			}
			slack = vecmath.QuantSettleSlack(qa.DotErrBoundQ8(math.Sqrt(xn), exn))
		} else {
			guardOK = vecmath.F32GuardOK(xn, maxN)
			slack = vecmath.QuantSettleSlack(vecmath.F32DotErrBound(c.dim, xn, maxN))
		}
	}
	if guardOK {
		minD := math.Inf(1)
		for _, u := range units {
			d := xn + norms[u] - 2*dots[u]
			dots[u] = d
			if d < minD {
				minD = d
			}
		}
		thr := minD + vecmath.ExpandSettleRel*(xn+maxN) + slack
		cand, ncand := -1, 0
		for _, u := range units {
			if dots[u] <= thr {
				cand = int(u)
				if ncand++; ncand > 1 {
					break
				}
			}
		}
		if ncand == 1 {
			// The canonical winner is always within the margin, so a
			// unique candidate is it; its canonical distance is deferred
			// until observable (leaf QE).
			return cand, 0, false
		}
		best, bestVal := -1, math.Inf(1)
		for _, u := range units {
			if dots[u] <= thr {
				if d := vecmath.SquaredDistanceFlat(row, c.arena, nd.weightOff+int(u)*c.dim); d < bestVal {
					best, bestVal = int(u), d
				}
			}
		}
		if best >= 0 {
			return best, bestVal, true
		}
	}
	bmu, d2 := c.bmu(row, nd)
	return bmu, d2, true
}

func (c *Compiled) checkFlat(flat []float64, n int, out []Placement) error {
	if len(flat) < n*c.dim {
		return fmt.Errorf("core: route flat batch of %d rows from %d values, want >= %d", n, len(flat), n*c.dim)
	}
	if len(out) < n {
		return fmt.Errorf("core: route flat batch of %d rows into %d placements", n, len(out))
	}
	return nil
}

// Decompile rebuilds the pointer-tree GHSOM from the compiled tables —
// the inverse of Compile, used when a binary envelope is loaded and the
// structural API (Stats, TreeString, U-matrices) is still wanted. The
// rebuilt model routes byte-identically to the Compiled.
func (c *Compiled) Decompile() (*GHSOM, error) {
	g := &GHSOM{
		cfg:  c.cfg,
		dim:  c.dim,
		mean: append([]float64(nil), c.mean...),
		mqe0: c.mqe0,
	}
	g.nodes = make([]*Node, len(c.nodes))
	for i := range c.nodes {
		nd := &c.nodes[i]
		m, err := som.New(nd.rows, nd.cols, c.dim)
		if err != nil {
			return nil, fmt.Errorf("core: decompile node %d: %w", i, err)
		}
		for u := 0; u < nd.units; u++ {
			off := nd.weightOff + u*c.dim
			if err := m.SetWeight(u, c.arena[off:off+c.dim]); err != nil {
				return nil, fmt.Errorf("core: decompile node %d unit %d: %w", i, u, err)
			}
		}
		counts := make([]int, nd.units)
		qes := make([]float64, nd.units)
		for u := 0; u < nd.units; u++ {
			counts[u] = int(c.counts[nd.unitBase+u])
			qes[u] = c.unitQE[nd.unitBase+u]
		}
		g.nodes[i] = &Node{
			ID:         i,
			Depth:      nd.depth,
			Map:        m,
			ParentUnit: nd.parentUnit,
			UnitQE:     qes,
			UnitCount:  counts,
		}
	}
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.parent == -1 {
			if g.root != nil {
				return nil, fmt.Errorf("core: decompile: multiple roots (%d and %d)", g.root.ID, i)
			}
			g.root = g.nodes[i]
			continue
		}
		if nd.parent < 0 || nd.parent >= len(c.nodes) {
			return nil, fmt.Errorf("core: decompile node %d: parent %d out of range", i, nd.parent)
		}
		p := g.nodes[nd.parent]
		if p.Children == nil {
			p.Children = make(map[int]*Node)
		}
		p.Children[nd.parentUnit] = g.nodes[i]
	}
	if g.root == nil {
		return nil, fmt.Errorf("core: decompile: model has no root node")
	}
	return g, nil
}
