package core

import (
	"math/rand"
	"slices"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/verify"
)

// TestAddGraphMatchesNaive: after incremental insertion, pipeline answers
// (Exact verifier) over the extended database must equal naive enumeration
// over the extended database.
func TestAddGraphMatchesNaive(t *testing.T) {
	db, raw := smallDatabase(t, 1001, 6, true)
	// Generate two extra graphs from the same distribution.
	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 2, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
		Labels: 3, Organisms: 2, Correlated: true, Seed: 2002,
	})
	if err != nil {
		t.Fatal(err)
	}
	genBefore := db.View().Generation
	for i, pg := range extra.Graphs {
		gi, m, err := db.AddGraph(pg)
		if err != nil {
			t.Fatal(err)
		}
		if gi >= db.Len() || gi != m.Index {
			t.Fatalf("returned index %d out of range or not the record's %d", gi, m.Index)
		}
		if want := genBefore + uint64(i) + 1; m.NewGeneration != want || m.OldGeneration != want-1 {
			t.Fatalf("AddGraph recorded generations %d → %d, want %d → %d", m.OldGeneration, m.NewGeneration, want-1, want)
		}
	}
	if db.Len() != len(raw.Graphs)+2 {
		t.Fatalf("database has %d graphs, want %d", db.Len(), len(raw.Graphs)+2)
	}
	// PMI columns must cover the new graphs.
	if n := db.View().PMI.NumGraphs(); n != db.Len() {
		t.Fatalf("PMI has %d columns, want %d", n, db.Len())
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		// Mix queries from the original and the inserted graphs.
		src := db.View().Certain[(trial*3+db.Len()-1)%db.Len()]
		q := dataset.ExtractQuery(src, 4, rng)
		eps := 0.35
		res, err := db.View().QueryCtx(bg, q, QueryOptions{
			Epsilon: eps, Delta: 1, OptBounds: true,
			Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
			Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		want, ssp := naiveAnswers(t, db, q, eps, 1)
		if !sameIntSet(res.Answers, want) {
			t.Fatalf("trial %d: incremental db pipeline %v vs naive %v (ssp %v)",
				trial, res.Answers, want, ssp)
		}
	}
}

// TestAddGraphBookkeepingAfterCommit: every Build stat and index structure
// reflects the post-insertion database once AddGraph returns — the
// IndexSizeBytes write happens after the commit point, never between the
// PMI extension and the graph append.
func TestAddGraphBookkeepingAfterCommit(t *testing.T) {
	db, _ := smallDatabase(t, 1007, 5, true)
	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, EdgeFactor: 1.3,
		Labels: 3, Organisms: 1, Correlated: true, Seed: 4004,
	})
	if err != nil {
		t.Fatal(err)
	}
	gi, _, err := db.AddGraph(extra.Graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := db.View().PMI.SizeBytes(); db.Build().IndexSizeBytes != want {
		t.Fatalf("IndexSizeBytes = %d, want PMI.SizeBytes() = %d", db.Build().IndexSizeBytes, want)
	}
	if cand, err := db.View().Struct.CandidatesCtx(bg, extra.Graphs[0].G, 0, 1); err != nil || !slices.Contains(cand, gi) {
		t.Fatalf("structural filter keeps %v (err %v) for the added graph itself: slot %d has no count row", cand, err, gi)
	}
	if v := db.View(); len(v.Graphs) != len(v.engines) || len(v.Graphs) != len(v.Certain) {
		t.Fatalf("parallel slices diverged: %d graphs, %d engines, %d certain",
			len(v.Graphs), len(v.engines), len(v.Certain))
	}

}

// TestAddGraphBoundsStaySound: PMI entries added incrementally must still
// sandwich the exact SIP.
func TestAddGraphBoundsStaySound(t *testing.T) {
	db, _ := smallDatabase(t, 1003, 5, true)
	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, EdgeFactor: 1.3,
		Labels: 3, Organisms: 1, Correlated: true, Seed: 3003,
	})
	if err != nil {
		t.Fatal(err)
	}
	gi, _, err := db.AddGraph(extra.Graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for fi, fg := range db.View().PMI.Features {
		e := db.View().PMI.At(fi, gi)
		if !e.Contained {
			continue
		}
		// Exact SIP by world enumeration.
		q := fg
		sip, err := db.View().ExactSSPByEnumeration(q, gi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e.Lower > sip+1e-9 || e.Upper < sip-1e-9 {
			t.Fatalf("feature %d: incremental bounds [%v,%v] miss exact SIP %v", fi, e.Lower, e.Upper, sip)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no contained features on the inserted graph (acceptable)")
	}
}
