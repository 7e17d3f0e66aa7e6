// Package align implements partial-order alignment (POA) for multiple
// sequence alignment of noisy reads, following Lee, Grasso and Sharlow
// (Bioinformatics 2002) and Lee (Bioinformatics 2003). The toolkit's
// Needleman–Wunsch trace-reconstruction algorithm (§VII-C of the paper) is
// built on this package: reads of a cluster are aligned into a POA graph,
// the graph induces alignment columns, and the consensus strand is the
// per-column majority vote with indel-heavy columns trimmed to the expected
// strand length. It replaces the SIMD `spoa` library used by the paper.
//
// Alignment of a sequence to the graph is global Needleman–Wunsch over the
// graph's topological order, with affine-free spoa-like scores (match
// rewarded, substitution and gap penalized) so alignments anchor on exact
// runs.
package align

import (
	"slices"
	"sort"

	"dnastore/internal/dna"
)

// Alignment scores, spoa-like ratios: matches are rewarded so alignments
// anchor on long exact runs instead of drifting through zero-cost ties.
const (
	matchScore = 2
	subScore   = -3
	gapScore   = -4
)

type node struct {
	base    dna.Base
	preds   []int // predecessor node ids (edges into this node)
	edgeN   []int // parallel to preds: number of reads traversing the edge
	succs   []int // successor node ids
	aligned []int // ids of nodes in the same alignment column
	support int   // number of reads whose path includes this node
}

// Graph is a partial-order alignment graph. The zero value is not usable;
// construct with NewGraph. Graph is not safe for concurrent mutation;
// reconstruction parallelizes across clusters, one Graph per worker, reused
// across that worker's clusters via Reset.
//
//dnalint:scratch
type Graph struct {
	nodes   []node
	paths   [][]int // node path of each added sequence, in insertion order
	scratch poaScratch
	refDP   bool // force the exhaustive-DP alignment kernel (SetReferenceDP)
}

// poaScratch holds the DP and traversal buffers reused across AddSequence
// calls: flat score/move/from tables indexed node*(m+1)+j, the virtual start
// row, Kahn's-algorithm working sets and the traceback pair list. Buffers
// grow on demand and are never shrunk, so after the first few reads the
// alignment of an additional read performs no table allocations at all.
//
//dnalint:scratch
type poaScratch struct {
	score []int
	move  []uint8
	from  []int32
	s0    []int
	indeg []int
	order []int
	ready []int
	pairs []pair

	// Live-window bounds per node row for the banded kernel (poa_fast.go):
	// winLo[id]..winHi[id] is the inclusive range of read positions whose DP
	// cell can still be on an alignment scoring above the pruning bound.
	winLo []int
	winHi []int

	// Column-machinery buffers (columnNodes): node→column assignment, ring
	// walk stack, member CSR, contracted-DAG edge words and Kahn working
	// sets. Kept separate from the alignment buffers above so a consensus
	// never invalidates alignment state mid-AddSequence.
	colOf     []int
	colStack  []int
	colCnt    []int
	colOff    []int
	colFlat   []int
	colEdges  []uint64
	colAdjOff []int
	colIndeg  []int
	colSeen   []uint8
	colReady  []int
	colOrder  []int
	colHdr    [][]int
}

// NewGraph returns an empty POA graph.
func NewGraph() *Graph { return &Graph{} }

// Reset clears the graph for reuse on a new cluster while keeping the node,
// path and DP scratch capacity. Reconstruction workers hold one Graph each
// and Reset it between clusters instead of allocating a fresh graph.
func (g *Graph) Reset() {
	g.nodes = g.nodes[:0]
	g.paths = g.paths[:0]
}

// NumSequences returns how many sequences have been added.
func (g *Graph) NumSequences() int { return len(g.paths) }

// NumNodes returns the number of graph nodes (for diagnostics).
func (g *Graph) NumNodes() int { return len(g.nodes) }

func (g *Graph) newNode(b dna.Base) int {
	if len(g.nodes) < cap(g.nodes) {
		// Reuse the slot (and its per-node slice capacity) left by Reset.
		g.nodes = g.nodes[:len(g.nodes)+1]
		n := &g.nodes[len(g.nodes)-1]
		n.base = b
		n.preds = n.preds[:0]
		n.edgeN = n.edgeN[:0]
		n.succs = n.succs[:0]
		n.aligned = n.aligned[:0]
		n.support = 0
	} else {
		g.nodes = append(g.nodes, node{base: b})
	}
	return len(g.nodes) - 1
}

func (g *Graph) addEdge(from, to int) {
	n := &g.nodes[to]
	for i, p := range n.preds {
		if p == from {
			n.edgeN[i]++
			return
		}
	}
	n.preds = append(n.preds, from)
	n.edgeN = append(n.edgeN, 1)
	g.nodes[from].succs = append(g.nodes[from].succs, to)
}

// growInts returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// topoOrder returns the node ids in a topological order (Kahn's algorithm,
// smallest id first for determinism). The returned slice is backed by the
// graph's scratch and valid until the next topoOrder call.
func (g *Graph) topoOrder() []int {
	sc := &g.scratch
	sc.indeg = growInts(sc.indeg, len(g.nodes))
	indeg := sc.indeg
	for i := range g.nodes {
		indeg[i] = len(g.nodes[i].preds)
	}
	ready := growInts(sc.ready, len(g.nodes))[:0]
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := growInts(sc.order, len(g.nodes))[:0]
	// Pop from the front with a head index (instead of reslicing) so the
	// scratch buffer's base pointer survives for the next call; the pending
	// region ready[head:] is kept sorted.
	head := 0
	for head < len(ready) {
		n := ready[head]
		head++
		order = append(order, n)
		for _, s := range g.nodes[n].succs {
			indeg[s]--
			if indeg[s] == 0 {
				// Insert keeping the ready list sorted; lists are short.
				pos := head + sort.SearchInts(ready[head:], s)
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = s
			}
		}
	}
	sc.order = order
	sc.ready = ready[:0]
	return order
}

// alignment move codes for traceback.
const (
	moveNone = iota
	moveDiag // consume graph node + read base
	moveVert // consume graph node only (deletion in read)
	moveHorz // consume read base only (insertion in read)
)

// aligned pair produced by traceback: Node == -1 means insertion (read base
// with no node), Pos == -1 means deletion (node with no read base).
type pair struct {
	node int
	pos  int
}

// alignToGraph globally aligns s against the graph and returns the pair list
// in forward order. The returned slice is backed by the graph's scratch and
// valid until the next alignToGraph call.
//
// The default kernel is the windowed wavefront sweep (poa_fast.go), which
// bails out when the read aligns too badly for the score bound to hold and
// falls back to the exhaustive DP (poa_dp.go) — so the pair list is always
// bit-identical to the DP reference. SetReferenceDP forces the reference for
// differential tests and benchmarks.
func (g *Graph) alignToGraph(s dna.Seq) []pair {
	if g.refDP {
		return g.alignToGraphDP(s)
	}
	if pairs, ok := g.alignToGraphBanded(s); ok {
		return pairs
	}
	// Hopeless read: the banded sweep's live window collapsed before a
	// sink, so no alignment reaches the score bound. The read still has to
	// merge into the graph, and only the full table is exact down there.
	return g.alignToGraphDP(s)
}

// SetReferenceDP forces every subsequent alignment through the retained
// exhaustive-DP reference kernel instead of the windowed fast path. The two
// produce bit-identical pair lists on every input (the fast path proves its
// bound or falls back), so this exists only for differential tests and
// fuzzers.
func (g *Graph) SetReferenceDP(on bool) { g.refDP = on }

// traceback walks the move/from tables back from the sink cell (bestEnd, m)
// and returns the aligned pairs in forward order, backed by the graph's pair
// scratch. Both alignment kernels share it, so traceback behaviour cannot
// diverge between them.
func (g *Graph) traceback(bestEnd, m, stride int, move []uint8, from []int32) []pair {
	sc := &g.scratch
	rev := sc.pairs[:0]
	cur, tj := bestEnd, m
	for cur != -1 {
		switch move[cur*stride+tj] {
		case moveDiag:
			rev = append(rev, pair{cur, tj - 1})
			next := int(from[cur*stride+tj])
			cur, tj = next, tj-1
		case moveVert:
			rev = append(rev, pair{cur, -1})
			cur = int(from[cur*stride+tj])
		case moveHorz:
			rev = append(rev, pair{-1, tj - 1})
			tj--
		default:
			// Source node with moveNone at j==0 cannot happen because diag /
			// vert from the virtual start always sets a move; guard anyway.
			cur = -1
		}
	}
	// Leading insertions before the first graph node.
	for tj > 0 {
		rev = append(rev, pair{-1, tj - 1})
		tj--
	}
	// Reverse into forward order.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	sc.pairs = rev[:0]
	return rev
}

// nextPathBuf extends g.paths by one slot and returns that slot's buffer,
// emptied: after a Reset the slot retains its previous backing array, so a
// reused graph records paths without reallocating them. The caller builds
// the path with append and stores the final header with setPath.
func (g *Graph) nextPathBuf(capHint int) []int {
	if len(g.paths) < cap(g.paths) {
		g.paths = g.paths[:len(g.paths)+1]
		return g.paths[len(g.paths)-1][:0]
	}
	g.paths = append(g.paths, make([]int, 0, capHint))
	return g.paths[len(g.paths)-1]
}

func (g *Graph) setPath(path []int) { g.paths[len(g.paths)-1] = path }

// AddSequence aligns s to the graph and merges it. The first sequence seeds
// the graph as a simple chain. Empty sequences are recorded with an empty
// path and do not modify the graph.
func (g *Graph) AddSequence(s dna.Seq) {
	path := g.nextPathBuf(len(s) + 1)
	if len(s) == 0 {
		g.setPath(path)
		return
	}
	if len(g.nodes) == 0 {
		prev := -1
		for _, b := range s {
			id := g.newNode(b)
			g.nodes[id].support = 1
			if prev >= 0 {
				g.addEdge(prev, id)
			}
			prev = id
			path = append(path, id)
		}
		g.setPath(path)
		return
	}

	pairs := g.alignToGraph(s)
	last := -1
	for _, pr := range pairs {
		switch {
		case pr.node >= 0 && pr.pos >= 0: // match or substitution column
			b := s[pr.pos]
			target := -1
			if g.nodes[pr.node].base == b {
				target = pr.node
			} else {
				for _, sib := range g.nodes[pr.node].aligned {
					if g.nodes[sib].base == b {
						target = sib
						break
					}
				}
			}
			if target == -1 {
				// Join the alignment ring of pr.node. The ring is a complete
				// clique, so pr.node plus its aligned list enumerates it; the
				// sibs view is taken before target joins, so the loop visits
				// exactly the pre-existing members.
				sibs := g.nodes[pr.node].aligned
				target = g.newNode(b)
				g.nodes[pr.node].aligned = append(g.nodes[pr.node].aligned, target)
				g.nodes[target].aligned = append(g.nodes[target].aligned, pr.node)
				for i := 0; i < len(sibs); i++ {
					member := sibs[i]
					g.nodes[member].aligned = append(g.nodes[member].aligned, target)
					g.nodes[target].aligned = append(g.nodes[target].aligned, member)
				}
			}
			g.nodes[target].support++
			if last >= 0 {
				g.addEdge(last, target)
			}
			last = target
			path = append(path, target)
		case pr.pos >= 0: // insertion: brand-new node
			id := g.newNode(s[pr.pos])
			g.nodes[id].support = 1
			if last >= 0 {
				g.addEdge(last, id)
			}
			last = id
			path = append(path, id)
		default: // deletion: the read skips this node
		}
	}
	g.setPath(path)
}

// Column summarizes one alignment column of the MSA induced by the graph.
type Column struct {
	Counts [dna.NumBases]int // reads voting for each base
	Gaps   int               // reads with no base in this column
}

// Coverage returns the number of reads that have a base in the column.
func (c Column) Coverage() int {
	n := 0
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// Majority returns the plurality base of the column and whether the column
// should appear in a consensus: the base must match or outvote the gaps
// (ties keep the base). Tie-keeping is deliberate, not an off-by-one: under
// the indel channel a *true* column's votes routinely tie the gap count
// (half the reads deleted the base), and dropping it would delete a real
// base with no recourse — whereas a tied spurious insertion that survives
// here is still removed by the indel-heavy column trim in Consensus
// (§VII-C). Measured on the Fig. 6 workload, strict-majority dropping raises
// the NW per-index error above BMA's; see TestMajorityTieSemantics.
func (c Column) Majority() (dna.Base, bool) {
	best, bestN := dna.A, -1
	for b, n := range c.Counts {
		if n > bestN {
			best, bestN = dna.Base(b), n
		}
	}
	return best, bestN >= c.Gaps && bestN > 0
}

// columns groups nodes into alignment columns (union of `aligned` rings) and
// returns, per column, its member nodes, ordered consistently with the node
// partial order. The returned headers and member lists are backed by the
// graph's scratch and valid until the next columnNodes call; the contracted
// column DAG is built from sorted deduplicated edge words instead of
// per-column maps so a consensus performs no per-column allocations.
func (g *Graph) columnNodes() [][]int {
	sc := &g.scratch
	n := len(g.nodes)
	sc.colOf = growInts(sc.colOf, n)
	colOf := sc.colOf
	for i := range colOf {
		colOf[i] = -1
	}
	// Assign column ids in first-discovery order (ascending node id).
	// aligned rings are maintained as complete cliques, so one hop is
	// enough; walk transitively anyway for safety.
	stack := growInts(sc.colStack, n)[:0]
	nCols := 0
	for i := 0; i < n; i++ {
		if colOf[i] >= 0 {
			continue
		}
		id := nCols
		nCols++
		colOf[i] = id
		stack = append(stack, i)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.nodes[v].aligned {
				if colOf[w] < 0 {
					colOf[w] = id
					stack = append(stack, w)
				}
			}
		}
	}
	sc.colStack = stack[:0]

	// Member lists as one flat CSR, filled in ascending node id per column.
	sc.colCnt = growInts(sc.colCnt, nCols)
	cnt := sc.colCnt
	for c := 0; c < nCols; c++ {
		cnt[c] = 0
	}
	for i := 0; i < n; i++ {
		cnt[colOf[i]]++
	}
	sc.colOff = growInts(sc.colOff, nCols+1)
	off := sc.colOff
	off[0] = 0
	for c := 0; c < nCols; c++ {
		off[c+1] = off[c] + cnt[c]
		cnt[c] = 0
	}
	sc.colFlat = growInts(sc.colFlat, n)
	flat := sc.colFlat
	for i := 0; i < n; i++ {
		c := colOf[i]
		flat[off[c]+cnt[c]] = i
		cnt[c]++
	}

	// Contracted column DAG: edges packed src<<32|dst, sorted and
	// deduplicated, then walked as a CSR adjacency.
	edges := sc.colEdges[:0]
	for to := 0; to < n; to++ {
		bt := colOf[to]
		for _, from := range g.nodes[to].preds {
			if a := colOf[from]; a != bt {
				edges = append(edges, uint64(a)<<32|uint64(uint32(bt)))
			}
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	sc.colAdjOff = growInts(sc.colAdjOff, nCols+1)
	adjOff := sc.colAdjOff
	e := 0
	for c := 0; c < nCols; c++ {
		adjOff[c] = e
		for e < len(edges) && int(edges[e]>>32) == c {
			e++
		}
	}
	adjOff[nCols] = e

	sc.colIndeg = growInts(sc.colIndeg, nCols)
	indeg := sc.colIndeg
	for c := 0; c < nCols; c++ {
		indeg[c] = 0
	}
	for _, w := range edges {
		indeg[int(uint32(w))]++
	}
	if cap(sc.colSeen) < nCols {
		sc.colSeen = make([]uint8, nCols)
	}
	seen := sc.colSeen[:nCols]
	for c := range seen {
		seen[c] = 0
	}
	ready := growInts(sc.colReady, nCols)[:0]
	for c := 0; c < nCols; c++ {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	order := growInts(sc.colOrder, nCols)[:0]
	// Pop from the front with a head index; the pending region ready[head:]
	// is kept sorted so ties resolve to the smallest column id.
	head := 0
	for len(order) < nCols {
		if head == len(ready) {
			// Conflicting read orders created a cycle between columns;
			// break it deterministically at the smallest unseen column.
			for c := 0; c < nCols; c++ {
				if seen[c] == 0 {
					ready = append(ready, c)
					break
				}
			}
		}
		c := ready[head]
		head++
		if seen[c] != 0 {
			continue
		}
		seen[c] = 1
		order = append(order, c)
		for i := adjOff[c]; i < adjOff[c+1]; i++ {
			s := int(uint32(edges[i]))
			indeg[s]--
			if indeg[s] <= 0 && seen[s] == 0 {
				pos := head + sort.SearchInts(ready[head:], s)
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = s
			}
		}
	}
	sc.colEdges = edges[:0]
	sc.colReady = ready[:0]
	sc.colOrder = order

	if cap(sc.colHdr) < nCols {
		sc.colHdr = make([][]int, nCols)
	}
	hdr := sc.colHdr[:nCols]
	for i, c := range order {
		hdr[i] = flat[off[c]:off[c+1]]
	}
	return hdr
}

// Columns returns the alignment columns in order, with per-base vote counts
// and gap counts across all added sequences.
func (g *Graph) Columns() []Column {
	colNodes := g.columnNodes()
	out := make([]Column, len(colNodes))
	total := len(g.paths)
	for i, members := range colNodes {
		covered := 0
		for _, n := range members {
			out[i].Counts[g.nodes[n].base] += g.nodes[n].support
			covered += g.nodes[n].support
		}
		out[i].Gaps = total - covered
	}
	return out
}

// Rows renders the multiple sequence alignment as one string per added
// sequence, using '-' for gaps. Intended for tests and debugging output.
func (g *Graph) Rows() []string {
	colNodes := g.columnNodes()
	colOf := make(map[int]int, len(g.nodes))
	for c, members := range colNodes {
		for _, n := range members {
			colOf[n] = c
		}
	}
	rows := make([]string, len(g.paths))
	for r, path := range g.paths {
		row := make([]byte, len(colNodes))
		for i := range row {
			row[i] = '-'
		}
		for _, n := range path {
			row[colOf[n]] = g.nodes[n].base.Byte()
		}
		rows[r] = string(row)
	}
	return rows
}

// keptColumn is one column surviving the majority filter, carrying enough
// context for the §VII-C indel trim and for mapping back to the source column.
type keptColumn struct {
	base dna.Base
	gaps int
	idx  int // index into the Columns() slice
}

// consensusKeep applies the majority filter and the §VII-C indel-heavy trim
// to alignment columns: columns where gaps outnumber every base are dropped,
// and if targetLen > 0 and more than targetLen columns survive, the excess
// columns with the highest gap counts are omitted (ties resolved by column
// index, so the result is deterministic). Both Consensus and ConsensusColumns
// go through here, so "kept columns" means the same thing everywhere.
func consensusKeep(cols []Column, targetLen int) []keptColumn {
	var keep []keptColumn
	for i, c := range cols {
		if b, ok := c.Majority(); ok {
			keep = append(keep, keptColumn{b, c.Gaps, i})
		}
	}
	if targetLen > 0 && len(keep) > targetLen {
		excess := len(keep) - targetLen
		// Pick the `excess` kept columns with the most indels; stable and
		// deterministic (ties resolved by column index).
		byGaps := make([]int, len(keep))
		for i := range byGaps {
			byGaps[i] = i
		}
		sort.Slice(byGaps, func(a, b int) bool {
			if keep[byGaps[a]].gaps != keep[byGaps[b]].gaps {
				return keep[byGaps[a]].gaps > keep[byGaps[b]].gaps
			}
			return keep[byGaps[a]].idx < keep[byGaps[b]].idx
		})
		drop := map[int]bool{}
		for _, i := range byGaps[:excess] {
			drop[i] = true
		}
		filtered := keep[:0]
		for i, k := range keep {
			if !drop[i] {
				filtered = append(filtered, k)
			}
		}
		keep = filtered
	}
	return keep
}

// Consensus returns the per-column majority consensus. Columns where gaps
// outnumber every base are dropped. If targetLen > 0 and the consensus is
// longer, the excess columns with the highest gap (indel) counts are omitted,
// as described in §VII-C of the paper.
func (g *Graph) Consensus(targetLen int) dna.Seq {
	keep := consensusKeep(g.Columns(), targetLen)
	out := make(dna.Seq, len(keep))
	for i, k := range keep {
		out[i] = k.base
	}
	return out
}

// ConsensusColumns returns the consensus and, parallel to it base-for-base,
// the alignment columns that produced it — i.e. the columns that survived the
// majority filter and the §VII-C indel trim. Confidence metrics must be
// computed over these kept columns, not over Columns(), which still includes
// every trimmed indel-heavy column (see recon.ConsensusWithConfidence).
func (g *Graph) ConsensusColumns(targetLen int) (dna.Seq, []Column) {
	cols := g.Columns()
	keep := consensusKeep(cols, targetLen)
	out := make(dna.Seq, len(keep))
	keptCols := make([]Column, len(keep))
	for i, k := range keep {
		out[i] = k.base
		keptCols[i] = cols[k.idx]
	}
	return out, keptCols
}

// ConsensusOf resets the graph, aligns all reads into it and returns the
// majority consensus, trimming to targetLen as described in §VII-C. It is
// the scratch-reusing entry point: a worker that holds one Graph and calls
// ConsensusOf per cluster pays no DP-table allocations after warmup.
func (g *Graph) ConsensusOf(reads []dna.Seq, targetLen int) dna.Seq {
	g.Reset()
	for _, r := range reads {
		g.AddSequence(r)
	}
	return g.Consensus(targetLen)
}

// Consensus aligns all reads into a fresh POA graph and returns the majority
// consensus, trimming to targetLen as described in §VII-C. It is the
// convenience entry point used by one-off callers; the reconstruction worker
// pool reuses a per-worker graph via ConsensusOf instead.
func Consensus(reads []dna.Seq, targetLen int) dna.Seq {
	return NewGraph().ConsensusOf(reads, targetLen)
}
