package bench

// This file freezes the pre-scratch (seed) implementations of two alignment
// kernels, verbatim in behaviour: Needleman–Wunsch traceback and the
// per-call-allocating POA graph. They are the bit-identical oracles the
// parity tests hold edit.Scratch.Align's op sequence and align.Graph's
// consensus to, and must not be "improved". Edit distance and the banded
// threshold check need no frozen copy: the parity test holds them to the
// reference DPs internal/edit keeps (Scratch.LevenshteinDP, WithinDP).

import (
	"sort"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
)

// refAlign is the seed Needleman–Wunsch with traceback (fresh [][]int table).
func refAlign(a, b dna.Seq) ([]edit.Op, int) {
	la, lb := len(a), len(b)
	dp := make([][]int, la+1)
	for i := range dp {
		dp[i] = make([]int, lb+1)
		dp[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := dp[i-1][j-1] + cost
			if v := dp[i-1][j] + 1; v < best {
				best = v
			}
			if v := dp[i][j-1] + 1; v < best {
				best = v
			}
			dp[i][j] = best
		}
	}
	var ops []edit.Op
	i, j := la, lb
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0:
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			if dp[i][j] == dp[i-1][j-1]+cost {
				if cost == 0 {
					ops = append(ops, edit.Match)
				} else {
					ops = append(ops, edit.Sub)
				}
				i--
				j--
				continue
			}
			if dp[i][j] == dp[i-1][j]+1 {
				ops = append(ops, edit.Del)
				i--
				continue
			}
			ops = append(ops, edit.Ins)
			j--
		case i > 0:
			ops = append(ops, edit.Del)
			i--
		default:
			ops = append(ops, edit.Ins)
			j--
		}
	}
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	return ops, dp[la][lb]
}

// Seed POA implementation (per-node DP slices, edge-weight maps, fresh
// allocations throughout), frozen from internal/align at the pre-scratch
// revision. Scoring constants mirror internal/align and must stay in sync
// with it for the parity tests to be meaningful.
const (
	refMatchScore = 2
	refSubScore   = -3
	refGapScore   = -4
)

type refNode struct {
	base    dna.Base
	preds   []int
	succs   []int
	edgeW   map[int]int
	aligned []int
	support int
}

type refGraph struct {
	nodes []refNode
	paths [][]int
}

func (g *refGraph) newNode(b dna.Base) int {
	g.nodes = append(g.nodes, refNode{base: b, edgeW: map[int]int{}})
	return len(g.nodes) - 1
}

func (g *refGraph) addEdge(from, to int) {
	n := &g.nodes[to]
	if _, ok := n.edgeW[from]; !ok {
		n.preds = append(n.preds, from)
		g.nodes[from].succs = append(g.nodes[from].succs, to)
	}
	n.edgeW[from]++
}

func (g *refGraph) topoOrder() []int {
	indeg := make([]int, len(g.nodes))
	for i := range g.nodes {
		indeg[i] = len(g.nodes[i].preds)
	}
	var heap []int
	for i, d := range indeg {
		if d == 0 {
			heap = append(heap, i)
		}
	}
	sort.Ints(heap)
	order := make([]int, 0, len(g.nodes))
	for len(heap) > 0 {
		n := heap[0]
		heap = heap[1:]
		order = append(order, n)
		for _, s := range g.nodes[n].succs {
			indeg[s]--
			if indeg[s] == 0 {
				pos := sort.SearchInts(heap, s)
				heap = append(heap, 0)
				copy(heap[pos+1:], heap[pos:])
				heap[pos] = s
			}
		}
	}
	return order
}

const (
	refMoveNone = iota
	refMoveDiag
	refMoveVert
	refMoveHorz
)

type refPair struct {
	node int
	pos  int
}

func (g *refGraph) alignToGraph(s dna.Seq) []refPair {
	m := len(s)
	order := g.topoOrder()
	nNodes := len(g.nodes)

	score := make([][]int, nNodes)
	move := make([][]uint8, nNodes)
	from := make([][]int32, nNodes)
	for _, id := range order {
		score[id] = make([]int, m+1)
		move[id] = make([]uint8, m+1)
		from[id] = make([]int32, m+1)
	}
	s0 := make([]int, m+1)
	for j := 1; j <= m; j++ {
		s0[j] = j * refGapScore
	}

	for _, id := range order {
		n := &g.nodes[id]
		row := score[id]
		for j := 0; j <= m; j++ {
			best := -1 << 30
			bestMove := uint8(refMoveNone)
			bestFrom := int32(-1)
			consider := func(prevRow []int, prevID int32) {
				if j >= 1 {
					sc := prevRow[j-1] + refSubScore
					if n.base == s[j-1] {
						sc = prevRow[j-1] + refMatchScore
					}
					if sc > best {
						best, bestMove, bestFrom = sc, refMoveDiag, prevID
					}
				}
				if sc := prevRow[j] + refGapScore; sc > best {
					best, bestMove, bestFrom = sc, refMoveVert, prevID
				}
			}
			if len(n.preds) == 0 {
				consider(s0, -1)
			}
			for _, p := range n.preds {
				consider(score[p], int32(p))
			}
			if j >= 1 {
				if sc := row[j-1] + refGapScore; sc > best {
					best, bestMove, bestFrom = sc, refMoveHorz, int32(id)
				}
			}
			row[j] = best
			move[id][j] = bestMove
			from[id][j] = bestFrom
		}
	}

	bestEnd, bestScore := -1, -1<<30
	for _, id := range order {
		if len(g.nodes[id].succs) == 0 && score[id][m] > bestScore {
			bestScore = score[id][m]
			bestEnd = id
		}
	}

	var rev []refPair
	cur, j := bestEnd, m
	for cur != -1 {
		switch move[cur][j] {
		case refMoveDiag:
			rev = append(rev, refPair{cur, j - 1})
			next := int(from[cur][j])
			cur, j = next, j-1
		case refMoveVert:
			rev = append(rev, refPair{cur, -1})
			cur = int(from[cur][j])
		case refMoveHorz:
			rev = append(rev, refPair{-1, j - 1})
			j--
		default:
			cur = -1
		}
	}
	for j > 0 {
		rev = append(rev, refPair{-1, j - 1})
		j--
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

func (g *refGraph) addSequence(s dna.Seq) {
	if len(s) == 0 {
		g.paths = append(g.paths, nil)
		return
	}
	if len(g.nodes) == 0 {
		path := make([]int, len(s))
		prev := -1
		for i, b := range s {
			id := g.newNode(b)
			g.nodes[id].support = 1
			if prev >= 0 {
				g.addEdge(prev, id)
			}
			prev = id
			path[i] = id
		}
		g.paths = append(g.paths, path)
		return
	}

	pairs := g.alignToGraph(s)
	var path []int
	last := -1
	for _, pr := range pairs {
		switch {
		case pr.node >= 0 && pr.pos >= 0:
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
				target = g.newNode(b)
				ring := append([]int{pr.node}, g.nodes[pr.node].aligned...)
				for _, member := range ring {
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
		case pr.pos >= 0:
			id := g.newNode(s[pr.pos])
			g.nodes[id].support = 1
			if last >= 0 {
				g.addEdge(last, id)
			}
			last = id
			path = append(path, id)
		default:
		}
	}
	g.paths = append(g.paths, path)
}

func (g *refGraph) columnNodes() [][]int {
	colOf := make([]int, len(g.nodes))
	for i := range colOf {
		colOf[i] = -1
	}
	var cols [][]int
	for i := range g.nodes {
		if colOf[i] >= 0 {
			continue
		}
		id := len(cols)
		members := []int{i}
		colOf[i] = id
		stack := append([]int(nil), g.nodes[i].aligned...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if colOf[n] >= 0 {
				continue
			}
			colOf[n] = id
			members = append(members, n)
			stack = append(stack, g.nodes[n].aligned...)
		}
		cols = append(cols, members)
	}

	nCols := len(cols)
	succ := make([]map[int]bool, nCols)
	indeg := make([]int, nCols)
	for i := range succ {
		succ[i] = map[int]bool{}
	}
	for to := range g.nodes {
		for _, from := range g.nodes[to].preds {
			a, b := colOf[from], colOf[to]
			if a != b && !succ[a][b] {
				succ[a][b] = true
				indeg[b]++
			}
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, nCols)
	seen := make([]bool, nCols)
	for len(order) < nCols {
		if len(ready) == 0 {
			for i := range seen {
				if !seen[i] {
					ready = append(ready, i)
					break
				}
			}
		}
		c := ready[0]
		ready = ready[1:]
		if seen[c] {
			continue
		}
		seen[c] = true
		order = append(order, c)
		for s := range succ[c] {
			indeg[s]--
			if indeg[s] <= 0 && !seen[s] {
				pos := sort.SearchInts(ready, s)
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = s
			}
		}
	}
	out := make([][]int, 0, nCols)
	for _, c := range order {
		out = append(out, cols[c])
	}
	return out
}

type refColumn struct {
	counts [dna.NumBases]int
	gaps   int
}

func (c refColumn) majority() (dna.Base, bool) {
	best, bestN := dna.A, -1
	for b, n := range c.counts {
		if n > bestN {
			best, bestN = dna.Base(b), n
		}
	}
	return best, bestN >= c.gaps && bestN > 0
}

func (g *refGraph) columns() []refColumn {
	colNodes := g.columnNodes()
	out := make([]refColumn, len(colNodes))
	total := len(g.paths)
	for i, members := range colNodes {
		covered := 0
		for _, n := range members {
			out[i].counts[g.nodes[n].base] += g.nodes[n].support
			covered += g.nodes[n].support
		}
		out[i].gaps = total - covered
	}
	return out
}

func (g *refGraph) consensus(targetLen int) dna.Seq {
	cols := g.columns()
	type kept struct {
		base dna.Base
		gaps int
		idx  int
	}
	var keep []kept
	for i, c := range cols {
		if b, ok := c.majority(); ok {
			keep = append(keep, kept{b, c.gaps, i})
		}
	}
	if targetLen > 0 && len(keep) > targetLen {
		excess := len(keep) - targetLen
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
	out := make(dna.Seq, len(keep))
	for i, k := range keep {
		out[i] = k.base
	}
	return out
}

// refConsensus is the seed consensus entry point: a fresh per-call graph.
func refConsensus(reads []dna.Seq, targetLen int) dna.Seq {
	g := &refGraph{}
	for _, r := range reads {
		g.addSequence(r)
	}
	return g.consensus(targetLen)
}
