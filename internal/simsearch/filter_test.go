package simsearch

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/mcs"
	"probgraph/internal/snapbin"
)

// edgeGraph builds a graph from "u:lu v:lv" vertex-label pairs per edge,
// e.g. pairs [][2]string{{"a","b"},{"a","b"}} gives two disjoint a–b edges.
func edgeGraph(name string, pairs [][2]string) *graph.Graph {
	b := graph.NewBuilder(name)
	for _, p := range pairs {
		u := b.AddVertex(graph.Label(p[0]))
		v := b.AddVertex(graph.Label(p[1]))
		b.MustAddEdge(u, v, "")
	}
	return b.Build()
}

// singleEdgeFeature is the labeled-edge counting feature lu–lv.
func singleEdgeFeature(lu, lv string) *graph.Graph {
	return edgeGraph("f", [][2]string{{lu, lv}})
}

// candidates is the filter without a context.
func candidates(ix *Index, q *graph.Graph, delta int) []int {
	out, _ := ix.CandidatesCtx(context.Background(), q, delta, 1)
	return out
}

// oracleCandidates is the filter inequality evaluated from nothing but the
// graphs: every count, query side and graph side, is recounted with
// iso.Count, so it shares no row, slab or scan with the Index. slots[gi]
// nil means slot gi is dead.
func oracleCandidates(features, slots []*graph.Graph, q *graph.Graph, delta int) []int {
	w := make([]int, q.NumEdges())
	cq := make([]int, len(features))
	for fi, f := range features {
		cq[fi] = iso.Count(f, q, nil, CountCap)
		n := 0
		iso.ForEach(f, q, nil, func(em *iso.Embedding) bool {
			n++
			for _, e := range em.Edges.Slice() {
				w[e]++
			}
			return n < CountCap
		})
	}
	sort.Sort(sort.Reverse(sort.IntSlice(w)))
	budget := 0
	for _, we := range w[:min(delta, len(w))] {
		budget += we
	}
	var out []int
	for gi, g := range slots {
		if g == nil {
			continue
		}
		misses := 0
		for fi, f := range features {
			misses += max(0, cq[fi]-iso.Count(f, g, nil, CountCap))
		}
		if misses <= budget {
			out = append(out, gi)
		}
	}
	return out
}

// TestDeltaBoundaryTable pins the filter's behaviour exactly at the miss
// budget: with unit destruction weights the budget T(δ) equals δ, so a
// graph missing exactly δ feature occurrences sits on the boundary
// (miss == T(δ): keep) and one more miss falls off it (miss == T(δ)+1:
// drop).
func TestDeltaBoundaryTable(t *testing.T) {
	// q: two vertex-disjoint a–b edges. The only counting feature with
	// embeddings in q is the a–b edge: cq = 2 and every q-edge carries
	// exactly one embedding, so w(e) = 1 and T(δ) = min(δ, 2).
	q := edgeGraph("q", [][2]string{{"a", "b"}, {"a", "b"}})
	features := []*graph.Graph{
		singleEdgeFeature("a", "b"),
		singleEdgeFeature("c", "c"), // zero embeddings in q on purpose
	}
	dbc := []*graph.Graph{
		edgeGraph("g0", [][2]string{{"a", "b"}}),                         // 1 a–b edge: miss 1
		edgeGraph("g1", [][2]string{{"a", "b"}, {"a", "b"}}),             // 2 a–b edges: miss 0
		edgeGraph("g2", [][2]string{{"c", "c"}}),                         // 0 a–b edges: miss 2
		edgeGraph("g3", [][2]string{{"a", "b"}, {"c", "c"}}),             // miss 1 (c–c is ignored)
		edgeGraph("g4", [][2]string{{"a", "a"}, {"b", "b"}}),             // miss 2: labels, not degree
		edgeGraph("g5", [][2]string{{"a", "b"}, {"a", "b"}, {"a", "b"}}), // surplus: miss 0
	}

	cases := []struct {
		delta int
		want  []int
	}{
		// T(0)=0: only miss==0 graphs pass; g0/g3 (miss 1 == T+1) drop.
		{0, []int{1, 5}},
		// T(1)=1: miss==1 graphs sit exactly on the budget and pass;
		// miss==2 graphs (g2, g4) are one over and drop.
		{1, []int{0, 1, 3, 5}},
		// T(2)=2: every miss≤2 graph passes.
		{2, []int{0, 1, 2, 3, 4, 5}},
		// δ beyond |E(q)| adds no budget (there are only 2 weights to sum).
		{3, []int{0, 1, 2, 3, 4, 5}},
	}
	ix := BuildIndex(dbc, features)
	for _, c := range cases {
		if got := candidates(ix, q, c.delta); !slices.Equal(got, c.want) {
			t.Errorf("delta=%d: candidates %v, want %v", c.delta, got, c.want)
		}
		if oracle := oracleCandidates(features, dbc, q, c.delta); !slices.Equal(oracle, c.want) {
			t.Errorf("delta=%d: oracle %v, want %v", c.delta, oracle, c.want)
		}
	}
}

// TestZeroEmbeddingFeaturesAreInert: features the query does not embed must
// not influence the filter — a database graph rich in such features is
// judged exactly as if they were not indexed at all.
func TestZeroEmbeddingFeaturesAreInert(t *testing.T) {
	q := edgeGraph("q", [][2]string{{"a", "b"}})
	with := []*graph.Graph{singleEdgeFeature("a", "b"), singleEdgeFeature("c", "c"), singleEdgeFeature("b", "c")}
	without := []*graph.Graph{singleEdgeFeature("a", "b")}
	dbc := []*graph.Graph{
		edgeGraph("g0", [][2]string{{"c", "c"}, {"b", "c"}, {"c", "c"}}),
		edgeGraph("g1", [][2]string{{"a", "b"}, {"c", "c"}}),
		edgeGraph("g2", [][2]string{{"b", "b"}}),
	}
	for delta := 0; delta <= 2; delta++ {
		a := candidates(BuildIndex(dbc, with), q, delta)
		b := candidates(BuildIndex(dbc, without), q, delta)
		if !slices.Equal(a, b) {
			t.Errorf("delta=%d: with inert features %v, without %v", delta, a, b)
		}
	}
}

// TestEmptyQueryAllCandidates: a query with no edges embeds in every world
// of every graph, so the filter must keep the whole live database — the
// scan has no case for it, an empty need list simply misses nothing.
func TestEmptyQueryAllCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dbc := randomDB(rng, 7)
	ix := BuildIndex(dbc, DefaultFeatures(dbc, 64)).WithTombstones(4)
	empty := graph.NewBuilder("empty").Build()
	for delta := 0; delta <= 1; delta++ {
		if got, want := candidates(ix, empty, delta), []int{0, 1, 2, 3, 5, 6}; !slices.Equal(got, want) {
			t.Fatalf("delta=%d: empty query kept %v, want every live graph %v", delta, got, want)
		}
	}
}

// TestCandidatesMatchCountOracle is the identity property: on randomized
// databases and queries, δ 0–3, with and without tombstones, the row scan
// returns exactly the graphs the inequality admits when every count is
// recomputed from the graphs.
func TestCandidatesMatchCountOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := randomDB(rng, 3+rng.Intn(10))
		features := DefaultFeatures(slots, 32+rng.Intn(64))
		ix := BuildIndex(slots, features)
		q := extractSubquery(rng, slots[rng.Intn(len(slots))], 2+rng.Intn(4))
		if seed%2 == 0 {
			slots = slices.Clone(slots)
			var dead []int
			for gi := range slots {
				if rng.Intn(3) == 0 {
					dead = append(dead, gi)
					slots[gi] = nil
				}
			}
			ix = ix.WithTombstones(dead...)
		}
		for delta := 0; delta <= 3; delta++ {
			got, want := candidates(ix, q, delta), oracleCandidates(features, slots, q, delta)
			if !slices.Equal(got, want) {
				t.Logf("seed %d delta %d: scan %v != oracle %v", seed, delta, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSCqWorkerIdentity: the full filter+confirm pipeline returns the same
// confirmed candidates and the same filter count at every worker count,
// and the confirmed set equals the exact subgraph-similarity scan.
func TestSCqWorkerIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 8)
		ix := BuildIndex(dbc, DefaultFeatures(dbc, 64))
		q := extractSubquery(rng, dbc[rng.Intn(len(dbc))], 3+rng.Intn(3))
		if q.NumEdges() == 0 {
			return true
		}
		delta := rng.Intn(3)
		wantConf, wantCount := ix.SCq(q, delta, 1)
		var wantExact []int
		for gi, g := range dbc {
			if mcs.Similar(q, g, nil, delta) {
				wantExact = append(wantExact, gi)
			}
		}
		if !slices.Equal(wantConf, wantExact) {
			t.Logf("seed %d: confirmed %v != exact %v", seed, wantConf, wantExact)
			return false
		}
		for _, workers := range []int{2, 4, 8} {
			conf, count := ix.SCq(q, delta, workers)
			if !slices.Equal(conf, wantConf) || count != wantCount {
				t.Logf("seed %d workers %d: (%v, %d) != (%v, %d)", seed, workers, conf, count, wantConf, wantCount)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// assertEqualsFresh checks ix against an index built from scratch over its
// surviving graphs (slots[gi] nil = dead): every live count row equals the
// fresh one, and on every query the candidates are the fresh index's mapped
// back to slots, which are the count oracle's.
func assertEqualsFresh(t *testing.T, step string, ix *Index, slots, features []*graph.Graph, qs []queryCase) {
	t.Helper()
	var survivors []*graph.Graph
	var slotOf []int
	for gi, g := range slots {
		if g != nil {
			survivors = append(survivors, g)
			slotOf = append(slotOf, gi)
		}
	}
	if len(ix.dbc) != len(slots) || ix.Tombstones() != len(slots)-len(survivors) {
		t.Fatalf("%s: index has %d slots, %d dead; want %d, %d", step, len(ix.dbc), ix.Tombstones(), len(slots), len(slots)-len(survivors))
	}
	fresh := BuildIndex(survivors, features)
	for ni, gi := range slotOf {
		if !slices.Equal(ix.row(gi), fresh.row(ni)) {
			t.Fatalf("%s: slot %d count row %v, fresh build %v", step, gi, ix.row(gi), fresh.row(ni))
		}
	}
	if ix.Tombstones() == 0 && !slices.Equal(ix.counts, fresh.counts) {
		t.Fatalf("%s: count slab differs from a fresh build's", step)
	}
	for qi, qc := range qs {
		got := candidates(ix, qc.q, qc.delta)
		var want []int
		for _, ni := range candidates(fresh, qc.q, qc.delta) {
			want = append(want, slotOf[ni])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s query %d: candidates %v, fresh build %v", step, qi, got, want)
		}
		if oracle := oracleCandidates(features, slots, qc.q, qc.delta); !slices.Equal(got, oracle) {
			t.Fatalf("%s query %d: candidates %v, oracle %v", step, qi, got, oracle)
		}
	}
}

// TestMutationChainEqualsFreshBuild walks build → add → replace → tombstone
// → compact → range (core's compaction and range cut are both Select) and
// holds every link to a fresh BuildIndex over the graphs that survive to
// it: same count slab, same candidates.
func TestMutationChainEqualsFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	all := randomDB(rng, 14)
	features := DefaultFeatures(all, 64)
	var qs []queryCase
	for trial := 0; trial < 12; trial++ {
		qs = append(qs, queryCase{extractSubquery(rng, all[rng.Intn(len(all))], 2+rng.Intn(4)), rng.Intn(4)})
	}

	slots := slices.Clone(all[:6])
	ix := BuildIndex(slots, features)
	assertEqualsFresh(t, "build", ix, slots, features, qs)
	for _, g := range all[6:11] {
		ix, slots = ix.WithGraph(g), append(slots, g)
	}
	assertEqualsFresh(t, "add", ix, slots, features, qs)
	ix, slots[3] = ix.WithReplaced(3, all[11]), all[11]
	assertEqualsFresh(t, "replace", ix, slots, features, qs)
	ix, slots[1], slots[8] = ix.WithTombstones(1).WithTombstones(8), nil, nil
	assertEqualsFresh(t, "tombstone", ix, slots, features, qs)
	ix, slots = ix.WithGraph(all[12]), append(slots, all[12])
	ix, slots[10] = ix.WithReplaced(10, all[13]), all[13]
	assertEqualsFresh(t, "add+replace beside tombstones", ix, slots, features, qs)
	var live []int
	for gi, g := range slots {
		if g != nil {
			live = append(live, gi)
		}
	}
	ix, slots = ix.Select(live), slices.DeleteFunc(slots, func(g *graph.Graph) bool { return g == nil })
	assertEqualsFresh(t, "compact", ix, slots, features, qs)
	lo, hi := 2, 7
	ix, slots = ix.Select([]int{2, 3, 4, 5, 6}), slices.Clone(slots[lo:hi])
	assertEqualsFresh(t, "range", ix, slots, features, qs)
}

// snapCodecs runs a struct section through each snapshot encoding.
var snapCodecs = []struct {
	name string
	save func(t *testing.T, encode func(snapbin.Encoder)) []byte
	load func(data []byte, dbc []*graph.Graph) (*Index, error)
}{
	{"binary",
		func(t *testing.T, encode func(snapbin.Encoder)) []byte {
			w := snapbin.NewWriter()
			encode(w.Section(1))
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		func(data []byte, dbc []*graph.Graph) (*Index, error) {
			snap, err := snapbin.Parse(data)
			if err != nil {
				return nil, err
			}
			sec, _ := snap.Section(1)
			return DecodeSnap(snapbin.NewCursor(sec), dbc)
		}},
	{"text",
		func(t *testing.T, encode func(snapbin.Encoder)) []byte {
			var buf bytes.Buffer
			e := snapbin.NewTextEncoder(&buf)
			encode(e.Section("struct"))
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		func(data []byte, dbc []*graph.Graph) (*Index, error) {
			d := snapbin.NewTextDecoder(bytes.NewReader(data))
			d.Section("struct")
			ix, err := DecodeSnap(d, dbc)
			if err != nil {
				return nil, err
			}
			return ix, d.Close()
		}},
}

// TestSaveLoadRoundTrip: in either encoding save→load→save is
// byte-identical and the loaded index carries the same features and counts
// — by value, so a field the section forgot shows up here — and answers
// identically. A section in the older layout, whose tail holds records
// derived from the counts, loads to the same index whatever those records
// say, and a tail cut short is an error.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dbc := randomDB(rng, 9)
	ix := BuildIndex(dbc, DefaultFeatures(dbc, 48))
	q := extractSubquery(rng, dbc[0], 3)

	// encodeOld is the section as the older writers laid it out: a width
	// word in the header and two records after the counts, here claiming
	// that no graph holds any feature.
	encodeOld := func(s snapbin.Encoder) {
		s.U32(uint32(len(ix.Features)))
		s.U32(uint32(len(dbc)))
		s.U32(5)
		s.U32(0)
		for _, f := range ix.Features {
			graph.EncodeSnap(s, f)
		}
		s.Align8()
		s.I32s(ix.counts)
		s.U32(2)
		for _, lo := range []uint32{0, 5} {
			s.U32(lo)
			s.U32(min(5, uint32(len(dbc))-lo))
			s.I32s(make([]int32, len(ix.Features)+1))
			s.I32s([]int32{0})
			s.I32s(nil)
		}
	}

	for _, codec := range snapCodecs {
		first := codec.save(t, ix.EncodeSnap)
		old := codec.save(t, encodeOld)
		for _, in := range [][]byte{first, old} {
			loaded, err := codec.load(in, dbc)
			if err != nil {
				t.Fatalf("%s: %v", codec.name, err)
			}
			if !bytes.Equal(codec.save(t, loaded.EncodeSnap), first) {
				t.Fatalf("%s: load→save is not the current layout's bytes", codec.name)
			}
			if !slices.Equal(loaded.counts, ix.counts) || !reflect.DeepEqual(loaded.Features, ix.Features) {
				t.Fatalf("%s: counts or counting features changed", codec.name)
			}
			for delta := 0; delta <= 2; delta++ {
				if a, b := candidates(ix, q, delta), candidates(loaded, q, delta); !slices.Equal(a, b) {
					t.Fatalf("%s delta=%d: loaded index answers %v, original %v", codec.name, delta, b, a)
				}
			}
		}
		if len(old) <= len(first) {
			t.Fatalf("%s: current layout (%d B) is not smaller than the older one (%d B)", codec.name, len(first), len(old))
		}
	}
	snap, _ := snapbin.Parse(snapCodecs[0].save(t, encodeOld))
	sec, _ := snap.Section(1)
	if _, err := DecodeSnap(snapbin.NewCursor(sec[:len(sec)-12]), dbc); err == nil {
		t.Fatal("a section cut inside its trailing records loaded without error")
	}
}

// BenchmarkCandidates keeps the filter's scaling with database size
// visible: profile + row scan for one six-edge δ 2 query on the ledger's
// corpus recipe (12–18 vertices, 128 counting features).
func BenchmarkCandidates(b *testing.B) {
	for _, n := range []int{120, 2000, 5000} {
		db, err := dataset.GeneratePPI(dataset.PPIOptions{NumGraphs: n, MinVertices: 12, MaxVertices: 18, Organisms: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		dbc := make([]*graph.Graph, n)
		for i, pg := range db.Graphs {
			dbc[i] = pg.G
		}
		ix := BuildIndex(dbc, DefaultFeatures(dbc, 0))
		q := dataset.ExtractQuery(dbc[0], 6, rand.New(rand.NewSource(2)))
		b.Run(fmt.Sprintf("graphs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				candidates(ix, q, 2)
			}
		})
	}
}
