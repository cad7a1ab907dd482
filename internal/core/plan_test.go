package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// badOptionsErrors runs every plan-backed entry point (and VerifySSPBatch,
// which validates the same way) with opt and returns the innermost error of
// each, keyed by entry point.
func badOptionsErrors(v *View, q *graph.Graph, opt QueryOptions) map[string]error {
	out := map[string]error{}
	_, out["QueryCtx"] = v.QueryCtx(bg, q, opt)
	for _, err := range v.QueryStream(bg, q, opt) {
		out["QueryStream"] = err
	}
	_, out["QueryTopKCtx"] = v.QueryTopKCtx(bg, q, 2, opt)
	_, _, out["QueryTopKBounds"] = v.QueryTopKBounds(bg, q, 2, opt)
	_, out["QueryBatchCtx"] = v.QueryBatchCtx(bg, []*graph.Graph{q}, opt)
	_, out["VerifySSPBatch"] = v.VerifySSPBatch(bg, q, []int{0}, opt)
	_, out["VerifySSP"] = v.VerifySSP(q, nil, 0, opt)
	for name, err := range out {
		for u := errors.Unwrap(err); u != nil; u = errors.Unwrap(u) {
			err = u // the batch names the failing member around the cause
		}
		out[name] = err
	}
	return out
}

// TestQueryValidation: one validation, one spelling. The same bad options
// are refused with QueryOptions.Validate's own error by every entry point —
// the ranked forms included, which used to accept any ε.
func TestQueryValidation(t *testing.T) {
	db, _ := smallDatabase(t, 505, 4, false)
	v := db.View()
	q := v.Certain[0]
	for _, opt := range []QueryOptions{
		{Epsilon: 1.5, Delta: 1},
		{Epsilon: 7, Delta: 1},
		{Epsilon: -0.1, Delta: 1},
		{Epsilon: 0.5, Delta: -1},
		{Delta: -3, Verifier: VerifierNone},
		{Epsilon: math.NaN(), Delta: 1},
		{Delta: 1, Verify: verify.Options{N: -5}},
	} {
		want := opt.Validate()
		if want == nil {
			t.Fatalf("%+v: Validate accepts the fixture", opt)
		}
		for name, err := range badOptionsErrors(v, q, opt) {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s(%+v): error %v, want %v", name, opt, err, want)
			}
		}
	}
	for name, err := range badOptionsErrors(v, q, QueryOptions{Delta: 1}) {
		if err != nil {
			t.Errorf("%s: valid options refused: %v", name, err)
		}
	}
}

// TestVerifyFormsCheckSlot: the exported per-slot forms answer an unknown
// or removed slot with ErrNoSuchGraph instead of panicking or estimating an
// SSP for a graph that is gone.
func TestVerifyFormsCheckSlot(t *testing.T) {
	db, _ := smallDatabase(t, 515, 5, true)
	if _, err := db.RemoveGraph(2); err != nil {
		t.Fatal(err)
	}
	v := db.View()
	q := dataset.ExtractQuery(v.Certain[0], 2, rand.New(rand.NewSource(5)))
	opt := QueryOptions{Delta: 1, Seed: 3}
	u := relax.Relaxed(q, opt.Delta, 0)
	for _, c := range []struct {
		name string
		slot int
		ok   bool
	}{
		{"negative", -1, false},
		{"past the end", v.Len(), false},
		{"tombstoned", 2, false},
		{"live", 0, true},
	} {
		_, errOne := v.VerifySSP(q, u, c.slot, opt)
		_, errBatch := v.VerifySSPBatch(bg, q, []int{0, c.slot}, opt)
		_, errEnum := v.ExactSSPByEnumeration(q, c.slot, opt.Delta)
		for form, err := range map[string]error{"VerifySSP": errOne, "VerifySSPBatch": errBatch, "ExactSSPByEnumeration": errEnum} {
			if c.ok && err != nil {
				t.Errorf("%s slot: %s refused it: %v", c.name, form, err)
			}
			if !c.ok && !errors.Is(err, ErrNoSuchGraph) {
				t.Errorf("%s slot: %s returned %v, want ErrNoSuchGraph", c.name, form, err)
			}
		}
	}
}

// TestIsolatedQueryVertexIsIgnored: Definition 8 counts edges only, so a
// query vertex without an edge — here one whose label no graph carries —
// must not change any answer at any δ, δ = 0 included. Before the δ = 0
// level of U dropped isolated vertices, structural confirmation said
// "similar", clause collection found no embedding, and the verifiers
// disagreed: VerifierNone answered the graph, SMP and Exact never did.
func TestIsolatedQueryVertexIsIgnored(t *testing.T) {
	db, _ := smallDatabase(t, 525, 6, true)
	v := db.View()
	src := v.Certain[0]
	b := graph.NewBuilder("q+isolated")
	for i := 0; i < src.NumVertices(); i++ {
		b.AddVertex(src.VertexLabel(graph.VertexID(i)))
	}
	b.AddVertex("no-such-label")
	for _, e := range src.Edges()[:3] {
		b.MustAddEdge(e.U, e.V, e.Label)
	}
	q := b.Build() // three edges of graph 0, its other vertices and the stranger isolated
	clean := q.DropIsolated()

	for delta := 0; delta <= 1; delta++ {
		exact := make(map[int]float64)
		for gi := range v.Graphs {
			got, err := v.ExactSSPByEnumeration(q, gi, delta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := v.ExactSSPByEnumeration(clean, gi, delta)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("δ=%d graph %d: enumeration gives %v with the isolated vertex, %v without", delta, gi, got, want)
			}
			exact[gi] = got
		}
		if exact[0] <= 0 {
			t.Fatalf("δ=%d: the query's own graph has SSP %v", delta, exact[0])
		}
		eps := exact[0] / 2
		for _, vk := range []VerifierKind{VerifierNone, VerifierSMP, VerifierExact} {
			opt := QueryOptions{Epsilon: eps, Delta: delta, OptBounds: true, Verifier: vk,
				Verify: verify.Options{N: 4000}, Seed: 9}
			got, err := v.QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := v.QueryCtx(bg, clean, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.SSP, want.SSP) {
				t.Errorf("δ=%d verifier %d: answers %v %v with the isolated vertex, %v %v without",
					delta, vk, got.Answers, got.SSP, want.Answers, want.SSP)
			}
			if !slices.Contains(got.Answers, 0) {
				t.Errorf("δ=%d verifier %d: the query's own graph (SSP %v ≥ ε %v) is not answered: %v",
					delta, vk, exact[0], eps, got.Answers)
			}
			for gi, p := range got.SSP {
				if vk == VerifierExact && p >= 0 && math.Abs(p-exact[gi]) > 1e-9 {
					t.Errorf("δ=%d graph %d: exact verifier %v, enumeration %v", delta, gi, p, exact[gi])
				}
			}
		}
	}
}
