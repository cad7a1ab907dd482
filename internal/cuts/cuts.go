// Package cuts enumerates minimal embedding cuts (paper §4.1.2): sets of
// target edges whose joint removal destroys every embedding of a feature f
// in the certain graph gc. The paper reduces cut enumeration to s–t cuts of
// a "parallel graph" cG built from one line graph per embedding
// (Karzanov–Timofeev, reference [22]); since cG is exactly a parallel
// composition of the embeddings' edge paths, its minimal s–t cuts are
// exactly the minimal transversals of the embedding hypergraph — one edge
// chosen from every embedding, minimized. We enumerate those directly with
// Berge's sequential algorithm under a cap.
//
// Any enumerated cut is a valid embedding cut, and the paper's PMI upper
// bound remains correct for any subset of the full cut family, so capping
// the enumeration trades bound tightness for time, never correctness. The
// index stores exact cells instead, so no engine package imports it; the
// ledger under bench/ still times it as a kernel.
package cuts

import (
	"sort"

	"probgraph/internal/graph"
)

// DefaultMaxCuts bounds the number of cuts kept.
const DefaultMaxCuts = 64

// capSlack is the working-set multiplier before intermediate pruning.
const capSlack = 4

// MinimalCuts returns minimal embedding cuts of the given embeddings
// (each an edge set over a graph with numEdges edges). At most maxCuts cuts
// are returned (maxCuts <= 0 selects DefaultMaxCuts), preferring small
// cuts. The result is empty when embeddings is empty.
func MinimalCuts(embeddings []graph.EdgeSet, numEdges, maxCuts int) []graph.EdgeSet {
	if len(embeddings) == 0 {
		return nil
	}
	if maxCuts <= 0 {
		maxCuts = DefaultMaxCuts
	}
	// Process small embeddings first: their choices branch least.
	embs := append([]graph.EdgeSet(nil), embeddings...)
	sort.Slice(embs, func(i, j int) bool { return embs[i].Count() < embs[j].Count() })

	var trans []graph.EdgeSet
	for _, e := range embs[0].Slice() {
		s := graph.NewEdgeSet(numEdges)
		s.Add(e)
		trans = append(trans, s)
	}
	for _, emb := range embs[1:] {
		var next []graph.EdgeSet
		for _, t := range trans {
			if t.Intersects(emb) {
				next = append(next, t)
				continue
			}
			for _, e := range emb.Slice() {
				nt := t.Clone()
				nt.Add(e)
				next = append(next, nt)
			}
		}
		next = minimize(next)
		if len(next) > maxCuts*capSlack {
			sort.Slice(next, func(i, j int) bool { return next[i].Count() < next[j].Count() })
			next = next[:maxCuts*capSlack]
		}
		trans = next
	}
	trans = minimize(trans)
	sort.Slice(trans, func(i, j int) bool {
		ci, cj := trans[i].Count(), trans[j].Count()
		if ci != cj {
			return ci < cj
		}
		return trans[i].Key() < trans[j].Key()
	})
	if len(trans) > maxCuts {
		trans = trans[:maxCuts]
	}
	return trans
}

// minimize removes duplicates and strict supersets.
func minimize(sets []graph.EdgeSet) []graph.EdgeSet {
	sort.Slice(sets, func(i, j int) bool {
		ci, cj := sets[i].Count(), sets[j].Count()
		if ci != cj {
			return ci < cj
		}
		return sets[i].Key() < sets[j].Key()
	})
	var out []graph.EdgeSet
	seen := make(map[string]bool)
	for _, s := range sets {
		k := s.Key()
		if seen[k] {
			continue
		}
		dominated := false
		for _, kept := range out {
			if s.ContainsAll(kept) {
				dominated = true
				break
			}
		}
		if !dominated {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// IsCut reports whether candidate hits every embedding — the defining
// property of an embedding cut.
func IsCut(candidate graph.EdgeSet, embeddings []graph.EdgeSet) bool {
	for _, emb := range embeddings {
		if !candidate.Intersects(emb) {
			return false
		}
	}
	return true
}

// ParallelGraph constructs the paper's cG illustration (Figure 8): one line
// graph per embedding (k+1 fresh nodes chained by k edges labeled with the
// target edge IDs), attached in parallel between fresh s and t vertices by
// unlabeled edges. It exists for exposition and tests; MinimalCuts does not
// need it.
func ParallelGraph(embeddings []graph.EdgeSet) *graph.Graph {
	b := graph.NewBuilder("cG")
	s := b.AddVertex("s")
	t := b.AddVertex("t")
	for _, emb := range embeddings {
		first := b.AddVertex("")
		prev := first
		for _, e := range emb.Slice() {
			next := b.AddVertex("")
			b.MustAddEdge(prev, next, graph.Label(edgeLabel(e)))
			prev = next
		}
		b.MustAddEdge(s, first, "")
		b.MustAddEdge(prev, t, "")
	}
	return b.Build()
}

func edgeLabel(e graph.EdgeID) string {
	// Small decimal rendering without fmt to keep this hot-path free.
	if e == 0 {
		return "e0"
	}
	var buf [12]byte
	i := len(buf)
	for v := int(e); v > 0; v /= 10 {
		i--
		buf[i] = byte('0' + v%10)
	}
	return "e" + string(buf[i:])
}
