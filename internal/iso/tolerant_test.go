package iso

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/verify"
)

// bruteWithin is ExistsWithin's reference: Definition 8 spelled out. Try
// every set of at most delta pattern edges, delete it, drop the vertices
// that isolates, and look for a plain embedding by brute force.
func bruteWithin(p, t *graph.Graph, mask *graph.EdgeSet, delta int) bool {
	var drop []graph.EdgeID
	var rec func(start int) bool
	rec = func(start int) bool {
		if bruteForceExists(deleteEdges(p, drop).DropIsolated(), t, mask) {
			return true
		}
		if len(drop) == delta {
			return false
		}
		for e := start; e < p.NumEdges(); e++ {
			drop = append(drop, graph.EdgeID(e))
			found := rec(e + 1)
			drop = drop[:len(drop)-1]
			if found {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// deleteEdges is g without the edges in drop, every vertex kept: the edge
// subgraph of the other edges.
func deleteEdges(g *graph.Graph, drop []graph.EdgeID) *graph.Graph {
	gone := make([]bool, g.NumEdges())
	for _, id := range drop {
		gone[id] = true
	}
	var keep []graph.EdgeID
	for id, d := range gone {
		if !d {
			keep = append(keep, graph.EdgeID(id))
		}
	}
	return g.EdgeSubgraph(keep)
}

// perRQ is what ExistsWithin replaced on the query path: one plain search
// per member of the relaxed set, here every exactly-delta deletion.
func perRQ(u []*graph.Graph, t *graph.Graph) bool {
	for _, rq := range u {
		if Exists(rq, t, nil) {
			return true
		}
	}
	return false
}

// deletions lists q minus every exactly-delta edge set, isolated vertices
// dropped — a superset of relax.Relaxed (no isomorphism dedup), which this
// package cannot import.
func deletions(q *graph.Graph, delta int) []*graph.Graph {
	var out []*graph.Graph
	var drop []graph.EdgeID
	var rec func(start int)
	rec = func(start int) {
		if len(drop) == delta {
			out = append(out, deleteEdges(q, drop).DropIsolated())
			return
		}
		for e := start; e < q.NumEdges(); e++ {
			drop = append(drop, graph.EdgeID(e))
			rec(e + 1)
			drop = drop[:len(drop)-1]
		}
	}
	rec(0)
	return out
}

// connectedQuery cuts a connected k-edge query out of g, breadth first from
// vertex 0.
func connectedQuery(g *graph.Graph, k int) *graph.Graph {
	var keep []graph.EdgeID
	taken := make([]bool, g.NumEdges())
	visited := make([]bool, g.NumVertices())
	visited[0] = true
	for frontier := []graph.VertexID{0}; len(frontier) > 0; frontier = frontier[1:] {
		for _, h := range g.Neighbors(frontier[0]) {
			if taken[h.Edge] || len(keep) == k {
				continue
			}
			taken[h.Edge] = true
			keep = append(keep, h.Edge)
			if !visited[h.To] {
				visited[h.To] = true
				frontier = append(frontier, h.To)
			}
		}
	}
	return g.EdgeSubgraph(keep).DropIsolated()
}

func TestTolerantMatchesDeletionSets(t *testing.T) {
	vl := []graph.Label{"a", "b", "c"}
	el := []graph.Label{"", "x"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 5+rng.Intn(3), 5+rng.Intn(6), vl[:1+rng.Intn(3)], el[:1+rng.Intn(2)])
		p := randomGraph(rng, 2+rng.Intn(4), 1+rng.Intn(5), vl, el[:1+rng.Intn(2)])
		var mask *graph.EdgeSet
		if seed%2 == 1 {
			m := graph.NewEdgeSet(tg.NumEdges())
			for e := 0; e < tg.NumEdges(); e++ {
				if rng.Intn(3) > 0 {
					m.Add(graph.EdgeID(e))
				}
			}
			mask = &m
		}
		for delta := 0; delta <= 3; delta++ {
			if got, want := ExistsWithin(p, tg, mask, delta), bruteWithin(p, tg, mask, delta); got != want {
				t.Fatalf("seed %d δ=%d: ExistsWithin %v, brute force %v\np = %v\nt = %v", seed, delta, got, want, p, tg)
			}
		}
	}
}

// perRQEdgeSets is the clause collection EdgeSetsWithin replaced: the
// edge sets of every exactly-delta deletion of p in t, deduplicated and
// absorbed. Past |E(p)| the relaxed set is the empty graph alone.
func perRQEdgeSets(p, t *graph.Graph, delta int) []graph.EdgeSet {
	if delta >= p.NumEdges() {
		return EdgeSets(graph.NewBuilder("empty").Build(), t, nil, 0)
	}
	var all []graph.EdgeSet
	for _, rq := range deletions(p, delta) {
		all = append(all, EdgeSets(rq, t, nil, 0)...)
	}
	return verify.DedupClauses(all)
}

// sortedSets lists the sets as edge lists in ascending order.
func sortedSets(sets []graph.EdgeSet) [][]graph.EdgeID {
	out := make([][]graph.EdgeID, len(sets))
	for i, s := range sets {
		out[i] = s.Slice()
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// TestEdgeSetsWithinMatchesDeletions holds the enumerator to the per-rq
// collection over every exactly-δ deletion, as families: on random
// labelled graphs with few labels (so that one vertex map realises several
// deletion sets) and patterns that may carry isolated vertices, at δ 0–3,
// δ = |E(p)| and beyond. Every set is new and has |E(p)| − δ edges, so the
// family needs no absorption; a limit keeps a sub-family of its size.
func TestEdgeSetsWithinMatchesDeletions(t *testing.T) {
	vl := []graph.Label{"a", "b", "c"}
	el := []graph.Label{"", "x"}
	compared := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 5+rng.Intn(4), 6+rng.Intn(8), vl[:1+rng.Intn(3)], el[:1+rng.Intn(2)])
		p := randomGraph(rng, 2+rng.Intn(4), 1+rng.Intn(6), vl[:1+rng.Intn(3)], el[:1+rng.Intn(2)])
		for _, delta := range []int{0, 1, 2, 3, p.NumEdges(), p.NumEdges() + 1} {
			got := EdgeSetsWithin(p, tg, delta, 0)
			want := perRQEdgeSets(p, tg, delta)
			if g, w := sortedSets(got), sortedSets(want); !slices.EqualFunc(g, w, slices.Equal) {
				t.Fatalf("seed %d δ=%d: EdgeSetsWithin %v, per-rq collection %v\np = %v\nt = %v", seed, delta, g, w, p, tg)
			}
			for i, s := range got {
				if s.Count() != max(p.NumEdges()-delta, 0) || s.Len() != tg.NumEdges() {
					t.Fatalf("seed %d δ=%d: set %v of %d edges over %d", seed, delta, s.Slice(), s.Count(), s.Len())
				}
				for _, o := range got[:i] {
					if s.Equal(o) {
						t.Fatalf("seed %d δ=%d: set %v twice", seed, delta, s.Slice())
					}
				}
			}
			if len(got) > 2 {
				limited := EdgeSetsWithin(p, tg, delta, 2)
				if len(limited) != 2 || !slices.ContainsFunc(got, limited[0].Equal) || !slices.ContainsFunc(got, limited[1].Equal) {
					t.Fatalf("seed %d δ=%d: limit 2 kept %v of %v", seed, delta, sortedSets(limited), sortedSets(got))
				}
			}
			compared += len(got)
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d sets compared", compared)
	}
}

// TestEdgeSetsWithinReachesEachPairOnce: the enumeration emits one image
// per (deletion set, vertex map) pair — as many as the per-rq loop over
// every exactly-δ deletion finds embeddings — so no map is reached both
// through a given-up anchor and a deletion chosen at the leaf, nor with a
// vertex the member drops still mapped.
func TestEdgeSetsWithinReachesEachPairOnce(t *testing.T) {
	vl := []graph.Label{"a", "b", "c"}
	reached := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 5+rng.Intn(4), 6+rng.Intn(8), vl[:1+rng.Intn(3)], []graph.Label{""})
		p := randomGraph(rng, 2+rng.Intn(4), 1+rng.Intn(6), vl[:1+rng.Intn(3)], []graph.Label{""})
		for delta := 0; delta < p.NumEdges(); delta++ {
			want := 0
			for _, rq := range deletions(p, delta) {
				want += Count(rq, tg, nil, 0)
			}
			sc := &scratch{images: imageSet{head: make(map[uint64]int32)}}
			sc.enumerate(p, tg, nil, delta, true, 0)
			if sc.images.reached != want {
				t.Fatalf("seed %d δ=%d: %d pairs emitted, the deletions have %d embeddings\np = %v\nt = %v", seed, delta, sc.images.reached, want, p, tg)
			}
			reached += want
		}
	}
	if reached < 1000 {
		t.Fatalf("only %d pairs reached", reached)
	}
}

type orderCase struct {
	P, T  string
	Mask  []graph.EdgeID
	Limit int
	Sets  [][]graph.EdgeID
	VMaps [][]graph.VertexID
}

// TestBudgetZeroKeepsEnumerationOrder replays testdata/enumeration_order.json,
// recorded from EdgeSets and FindAll of the commit before the matcher took a
// budget (bc12ae4): the strict search must still produce every embedding in
// that order, because clause order feeds the sampler and the summation
// order of inclusion–exclusion.
func TestBudgetZeroKeepsEnumerationOrder(t *testing.T) {
	raw, err := os.ReadFile("testdata/enumeration_order.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []orderCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	decode := func(s string) *graph.Graph {
		g, err := graph.NewDecoder(strings.NewReader(s)).Decode()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	embeddings := 0
	for i, c := range cases {
		p, tg := decode(c.P), decode(c.T)
		var mask *graph.EdgeSet
		if c.Mask != nil {
			m := graph.NewEdgeSet(tg.NumEdges())
			for _, e := range c.Mask {
				m.Add(e)
			}
			mask = &m
		}
		sets := [][]graph.EdgeID{}
		for _, s := range EdgeSets(p, tg, mask, c.Limit) {
			sets = append(sets, s.Slice())
		}
		vmaps := [][]graph.VertexID{}
		for _, em := range FindAll(p, tg, mask, 0) {
			vmaps = append(vmaps, em.VMap)
		}
		eq := func(a, b []graph.EdgeID) bool { return slices.Equal(a, b) }
		if !slices.EqualFunc(sets, c.Sets, eq) {
			t.Errorf("case %d: EdgeSets order %v, recorded %v", i, sets, c.Sets)
		}
		if !slices.EqualFunc(vmaps, c.VMaps, func(a, b []graph.VertexID) bool { return slices.Equal(a, b) }) {
			t.Errorf("case %d: FindAll order %v, recorded %v", i, vmaps, c.VMaps)
		}
		if Exists(p, tg, mask) != (len(c.VMaps) > 0) || Count(p, tg, mask, 0) != len(c.VMaps) {
			t.Errorf("case %d: Exists/Count disagree with the %d recorded embeddings", i, len(c.VMaps))
		}
		embeddings += len(c.VMaps)
	}
	if embeddings < 500 {
		t.Fatalf("fixture holds %d embeddings, expected the recorded 519", embeddings)
	}
}

// fuzzInput decodes bytes into a small search problem: a pattern of at most
// 5 vertices and 8 edges (label "z" never occurs in the target), a target of
// at most 7 vertices and 8 edges, an optional world mask and δ ∈ 0..3.
// Vertex labels include the empty one and two that share a prefix, "a" and
// "ab", and edges are labelled "" or "x". Exhausted input reads as zeros,
// so every byte string is a valid problem.
func fuzzInput(data []byte) (p, t *graph.Graph, mask *graph.EdgeSet, delta int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	labels := []graph.Label{"a", "ab", "", "z"}
	elabels := []graph.Label{"", "x"}
	delta = next() % 4
	nl := 1 + next()%3
	build := func(name string, maxV, nlabels int) *graph.Graph {
		b := graph.NewBuilder(name)
		nv := 1 + next()%maxV
		for v := 0; v < nv; v++ {
			b.AddVertex(labels[next()%nlabels])
		}
		for tries, added := next()%13, 0; tries > 0 && added < 8; tries-- {
			e := next()
			u, v := graph.VertexID(e>>4%nv), graph.VertexID(e&15%nv)
			if u == v {
				continue
			}
			if _, err := b.AddEdge(u, v, elabels[next()%2]); err == nil {
				added++
			}
		}
		return b.Build()
	}
	labels[nl] = "z"
	p = build("p", 5, nl+1)
	t = build("t", 7, nl)
	if next()%2 == 1 {
		m := graph.NewEdgeSet(t.NumEdges())
		bits := next()
		for e := 0; e < t.NumEdges(); e++ {
			if bits>>e&1 == 1 {
				m.Add(graph.EdgeID(e))
			}
		}
		mask = &m
	}
	return p, t, mask, delta
}

// FuzzExistsWithin holds the tolerant search to Definition 8 by brute force
// over deletion sets, budget 0 on an isolate-free pattern to Exists, and
// the enumeration (on the unmasked target) to the per-rq collection and,
// capped at one set or not, to the search: it finds a set exactly when
// ExistsWithin is true, so structural confirmation may enumerate. The
// checked-in corpus is under testdata/fuzz/FuzzExistsWithin.
func FuzzExistsWithin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 0, 3, 0x01, 0, 0x12, 0, 0x20, 0, 4, 0, 0, 0, 0, 0, 5, 0x01, 0, 0x12, 0, 0x23, 0, 0x34, 0, 0x40, 0})
	// Labels sharing a prefix: a path a–ab–a in a target labelled ab, a, a, "".
	f.Add([]byte{1, 2, 2, 0, 1, 0, 2, 0x01, 0, 0x12, 0, 3, 1, 0, 0, 2, 3, 0x01, 0, 0x02, 0, 0x23, 0, 0})
	// The empty label on vertices and edges, the pattern a copy of the target.
	f.Add([]byte{0, 2, 2, 2, 2, 0, 2, 0x01, 0, 0x12, 1, 2, 2, 2, 0, 2, 0x01, 0, 0x12, 1, 0})
	// An edge label the target lacks: both pattern edges are x, no target edge is.
	f.Add([]byte{1, 1, 2, 0, 1, 0, 2, 0x01, 1, 0x12, 1, 2, 0, 1, 0, 2, 0x01, 0, 0x12, 0, 0})
	// A vertex label the target lacks, at δ 1 and 2: z hangs off a path.
	f.Add([]byte{1, 1, 3, 0, 1, 0, 2, 3, 0x01, 0, 0x12, 0, 0x23, 0, 3, 0, 1, 0, 0, 3, 0x01, 0, 0x12, 0, 0x23, 0, 0})
	f.Add([]byte{2, 1, 3, 2, 1, 0, 2, 3, 0x01, 0, 0x12, 0, 0x23, 0, 3, 0, 1, 0, 0, 3, 0x01, 0, 0x12, 0, 0x23, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, tg, mask, delta := fuzzInput(data)
		got, want := ExistsWithin(p, tg, mask, delta), bruteWithin(p, tg, mask, delta)
		if got != want {
			t.Fatalf("δ=%d: ExistsWithin %v, brute force %v\np = %v\nt = %v\nmask = %v", delta, got, want, p, tg, mask)
		}
		if rq := p.DropIsolated(); ExistsWithin(p, tg, mask, 0) != Exists(rq, tg, mask) {
			t.Fatalf("budget 0 disagrees with Exists\np = %v\nt = %v\nmask = %v", p, tg, mask)
		}
		all := EdgeSetsWithin(p, tg, delta, 0)
		if g, w := sortedSets(all), sortedSets(perRQEdgeSets(p, tg, delta)); !slices.EqualFunc(g, w, slices.Equal) {
			t.Fatalf("δ=%d: EdgeSetsWithin %v, per-rq collection %v\np = %v\nt = %v", delta, g, w, p, tg)
		}
		exists, one := ExistsWithin(p, tg, nil, delta), EdgeSetsWithin(p, tg, delta, 1)
		if len(one) > 1 || (len(one) > 0) != exists || (len(all) > 0) != exists {
			t.Fatalf("δ=%d: ExistsWithin %v, EdgeSetsWithin finds %d sets at limit 1 and %d at 0\np = %v\nt = %v", delta, exists, len(one), len(all), p, tg)
		}
	})
}

// BenchmarkExistsWithin compares one tolerant search per target with the
// per-rq loop it replaced, at both ends of the ledger's query shapes — a
// four-edge query at δ 1 (|U| ≈ 4) and a ten-edge query at δ 2 (|U| ≈ 44)
// over ten-vertex targets — and, so that "never scans the target" stays a
// number, the ten-edge query over 200-vertex targets, cut from one of them
// (all hits) and from a denser stranger (mostly misses).
func BenchmarkExistsWithin(b *testing.B) {
	vl := []graph.Label{"a", "b", "c", "d"}
	for _, shape := range []struct {
		name                string
		nv, ne              int  // of each target
		stranger            bool // cut the query from a graph that is no target
		edges, delta, count int
	}{
		{"4edges-d1", 10, 16, false, 4, 1, 32},
		{"10edges-d2", 10, 16, false, 10, 2, 32},
		{"10edges-d2-200v", 200, 320, false, 10, 2, 8},
		{"10edges-d2-200v-stranger", 200, 320, true, 10, 2, 8},
	} {
		rng := rand.New(rand.NewSource(7))
		targets := make([]*graph.Graph, shape.count)
		for i := range targets {
			targets[i] = randomGraph(rng, shape.nv, shape.ne, vl[:3], []graph.Label{""})
		}
		src := targets[0]
		if shape.stranger {
			src = randomGraph(rng, 24, 110, vl[:3], []graph.Label{""})
		}
		q := connectedQuery(src, shape.edges)
		u := deletions(q, shape.delta)
		hits := 0
		for _, tg := range targets {
			want := perRQ(u, tg)
			if ExistsWithin(q, tg, nil, shape.delta) != want {
				b.Fatal("tolerant search and per-rq loop disagree")
			}
			if want {
				hits++
			}
		}
		b.Run(shape.name+"/tolerant", func(b *testing.B) {
			b.ReportMetric(float64(hits)/float64(len(targets)), "hit-ratio")
			for i := 0; i < b.N; i++ {
				ExistsWithin(q, targets[i%len(targets)], nil, shape.delta)
			}
		})
		b.Run(shape.name+"/per-rq", func(b *testing.B) {
			b.ReportMetric(float64(len(u)), "rq")
			for i := 0; i < b.N; i++ {
				perRQ(u, targets[i%len(targets)])
			}
		})
	}
}

// TestImageSetResetKeepsOnlyItsOwnSets: a small strict enumeration on a
// scratch that just ran a large tolerant one returns the sets, in the
// order, it returns on a fresh scratch, and leaves the image table holding
// its own sets alone: reset deletes what the last enumeration inserted.
func TestImageSetResetKeepsOnlyItsOwnSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := []graph.Label{"a"}
	bigT, bigP := randomGraph(rng, 20, 45, a, []graph.Label{""}), randomGraph(rng, 6, 5, a, []graph.Label{""})
	smallT, smallP := randomGraph(rng, 8, 10, a, []graph.Label{""}), randomGraph(rng, 3, 2, a, []graph.Label{""})
	pooled := &scratch{images: imageSet{head: make(map[uint64]int32)}}
	if n := len(pooled.enumerate(bigP, bigT, nil, 2, true, 0)); n < 1000 {
		t.Fatalf("the large enumeration found only %d sets", n)
	}
	fresh := &scratch{images: imageSet{head: make(map[uint64]int32)}}
	want := fresh.enumerate(smallP, smallT, nil, 0, false, 0)
	got := pooled.enumerate(smallP, smallT, nil, 0, false, 0)
	if len(want) == 0 || !slices.EqualFunc(got, want, graph.EdgeSet.Equal) {
		t.Fatalf("after a large enumeration the scratch returns %v, a fresh one %v", got, want)
	}
	s := &pooled.images
	own := map[uint64]bool{}
	for _, h := range s.hash {
		own[h] = true
	}
	if len(s.next) != len(want) || len(s.head) != len(own) {
		t.Fatalf("the table holds %d sets under %d hashes, the enumeration's %d sets have %d", len(s.next), len(s.head), len(want), len(own))
	}
	for h, last := range s.head {
		if !own[h] || s.hash[last-1] != h {
			t.Fatalf("hash %x heads set %d, not one of the enumeration's own", h, last-1)
		}
	}
}
