package simsearch

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
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

// TestDeltaBoundaryTable pins the filter's behaviour exactly at the miss
// budget: with unit destruction weights the budget T(δ) equals δ, so a
// graph missing exactly δ feature occurrences sits on the boundary
// (miss == T(δ): keep) and one more miss falls off it (miss == T(δ)+1:
// drop). Verified against both the postings path and the dense oracle.
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
	for _, shardSize := range []int{1, 2, 64} {
		ix := BuildIndexSharded(dbc, features, shardSize)
		for _, c := range cases {
			for _, workers := range []int{1, 4} {
				got := ix.Candidates(q, c.delta, workers)
				if !slices.Equal(got, c.want) {
					t.Errorf("shardSize=%d workers=%d delta=%d: candidates %v, want %v",
						shardSize, workers, c.delta, got, c.want)
				}
			}
			if dense := ix.CandidatesDense(q, c.delta); !slices.Equal(dense, c.want) {
				t.Errorf("shardSize=%d delta=%d: dense candidates %v, want %v",
					shardSize, c.delta, dense, c.want)
			}
		}
	}
}

// TestZeroEmbeddingFeaturesAreInert: features the query does not embed must
// not influence the filter in either path — a database graph rich in such
// features is judged exactly as if they were not indexed at all.
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
		a := BuildIndex(dbc, with).Candidates(q, delta, 1)
		b := BuildIndex(dbc, without).Candidates(q, delta, 1)
		if !slices.Equal(a, b) {
			t.Errorf("delta=%d: with inert features %v, without %v", delta, a, b)
		}
	}
}

// TestEmptyQueryAllCandidates: a query with no edges embeds in every world
// of every graph, so the filter must keep the whole database (and both
// paths must agree on it).
func TestEmptyQueryAllCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dbc := randomDB(rng, 7)
	ix := BuildIndexSharded(dbc, DefaultFeatures(dbc, 64), 2)
	empty := graph.NewBuilder("empty").Build()
	for delta := 0; delta <= 1; delta++ {
		got := ix.Candidates(empty, delta, 3)
		if len(got) != len(dbc) {
			t.Fatalf("delta=%d: empty query kept %d/%d graphs", delta, len(got), len(dbc))
		}
		if dense := ix.CandidatesDense(empty, delta); !slices.Equal(got, dense) {
			t.Fatalf("delta=%d: postings %v != dense %v", delta, got, dense)
		}
	}
}

// TestPostingsMatchDense is the identity property: on randomized databases
// and queries, the sharded postings scan returns exactly the dense oracle's
// candidate list, for every shard width and worker count tried.
func TestPostingsMatchDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 3+rng.Intn(10))
		features := DefaultFeatures(dbc, 32+rng.Intn(64))
		q := extractSubquery(rng, dbc[rng.Intn(len(dbc))], 2+rng.Intn(4))
		delta := rng.Intn(4)
		for _, shardSize := range []int{1, 2, 3, 5, 64} {
			ix := BuildIndexSharded(dbc, features, shardSize)
			dense := ix.CandidatesDense(q, delta)
			for _, workers := range []int{1, 2, 8} {
				got := ix.Candidates(q, delta, workers)
				if !slices.Equal(got, dense) {
					t.Logf("seed %d shardSize %d workers %d: postings %v != dense %v",
						seed, shardSize, workers, got, dense)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSCqSerialShardedIdentity: the full filter+confirm pipeline returns
// set-identical confirmed candidates and the same filter count at every
// worker count and shard width, and the confirmed set equals the exact
// subgraph-similarity scan.
func TestSCqSerialShardedIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 8)
		features := DefaultFeatures(dbc, 64)
		q := extractSubquery(rng, dbc[rng.Intn(len(dbc))], 3+rng.Intn(3))
		if q.NumEdges() == 0 {
			return true
		}
		delta := rng.Intn(3)
		base := BuildIndexSharded(dbc, features, 3)
		wantConf, wantCount := base.SCq(q, delta, 1)
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
		for _, shardSize := range []int{1, 4, 256} {
			ix := BuildIndexSharded(dbc, features, shardSize)
			for _, workers := range []int{1, 2, 4, 8} {
				conf, count := ix.SCq(q, delta, workers)
				if !slices.Equal(conf, wantConf) || count != wantCount {
					t.Logf("seed %d shardSize %d workers %d: (%v, %d) != (%v, %d)",
						seed, shardSize, workers, conf, count, wantConf, wantCount)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAddGraphExtendsPostings: incrementally grown postings (the
// copy-on-write WithGraph chain) answer exactly like an index built from
// scratch over the final database, including when growth crosses shard
// boundaries — and no link of the chain mutates its predecessor.
func TestAddGraphExtendsPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	all := randomDB(rng, 11)
	features := DefaultFeatures(all, 64)
	for _, shardSize := range []int{1, 3, 256} {
		inc := BuildIndexSharded(all[:4], features, shardSize)
		for _, g := range all[4:] {
			inc = inc.WithGraph(g)
		}
		full := BuildIndexSharded(all, features, shardSize)
		if is, ie := inc.PostingsStats(); true {
			fs, fe := full.PostingsStats()
			if is != fs || ie != fe {
				t.Fatalf("shardSize=%d: incremental postings (%d shards, %d entries) != rebuilt (%d, %d)",
					shardSize, is, ie, fs, fe)
			}
		}
		for trial := 0; trial < 12; trial++ {
			q := extractSubquery(rng, all[rng.Intn(len(all))], 2+rng.Intn(4))
			delta := rng.Intn(3)
			a := inc.Candidates(q, delta, 4)
			b := full.Candidates(q, delta, 4)
			if !slices.Equal(a, b) {
				t.Fatalf("shardSize=%d: incremental %v != rebuilt %v", shardSize, a, b)
			}
			if dense := full.CandidatesDense(q, delta); !slices.Equal(a, dense) {
				t.Fatalf("shardSize=%d: postings %v != dense %v", shardSize, a, dense)
			}
		}
	}
}

// snapCodecs runs an index section through each snapshot encoding.
var snapCodecs = []struct {
	name string
	save func(t *testing.T, ix *Index) []byte
	load func(data []byte, dbc []*graph.Graph) (*Index, error)
}{
	{"binary",
		func(t *testing.T, ix *Index) []byte {
			w := snapbin.NewWriter()
			ix.EncodeSnap(w.Section(1))
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
		func(t *testing.T, ix *Index) []byte {
			var buf bytes.Buffer
			e := snapbin.NewTextEncoder(&buf)
			ix.EncodeSnap(e.Section("struct"))
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

// TestSaveLoadRoundTripsPostings: in either encoding save→load→save is
// byte-identical, and the loaded index carries the same counts, shard
// width and posting slabs — by value, so a field the section forgot shows
// up here — and answers identically.
func TestSaveLoadRoundTripsPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dbc := randomDB(rng, 9)
	ix := BuildIndexSharded(dbc, DefaultFeatures(dbc, 48), 4)
	q := extractSubquery(rng, dbc[0], 3)

	for _, codec := range snapCodecs {
		first := codec.save(t, ix)
		loaded, err := codec.load(first, dbc)
		if err != nil {
			t.Fatalf("%s: %v", codec.name, err)
		}
		if !bytes.Equal(codec.save(t, loaded), first) {
			t.Fatalf("%s: save→load→save not byte-identical", codec.name)
		}
		if loaded.ShardSize() != 4 {
			t.Fatalf("%s: shard size %d after round trip, want 4", codec.name, loaded.ShardSize())
		}
		if !slices.Equal(loaded.counts, ix.counts) || loaded.postEntries != ix.postEntries {
			t.Fatalf("%s: counts or posting-entry total changed", codec.name)
		}
		if !reflect.DeepEqual(loaded.Features, ix.Features) {
			t.Fatalf("%s: counting features changed", codec.name)
		}
		if len(loaded.shards) != len(ix.shards) {
			t.Fatalf("%s: %d shards, want %d", codec.name, len(loaded.shards), len(ix.shards))
		}
		for si, want := range ix.shards {
			got := loaded.shards[si]
			if got.lo != want.lo || got.n != want.n || !slices.Equal(got.lvlOff, want.lvlOff) ||
				!slices.Equal(got.entOff, want.entOff) || !slices.Equal(got.slab, want.slab) {
				t.Fatalf("%s: shard %d changed", codec.name, si)
			}
		}
		for delta := 0; delta <= 2; delta++ {
			a := ix.Candidates(q, delta, 2)
			b := loaded.Candidates(q, delta, 2)
			if !slices.Equal(a, b) {
				t.Fatalf("%s delta=%d: loaded index answers %v, original %v", codec.name, delta, b, a)
			}
		}
	}
}
