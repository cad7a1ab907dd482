package experiments

import (
	"bytes"
	"testing"
)

// The experiment suite is exercised end-to-end at tiny scale: every figure
// must produce a table with the expected row counts, and the shared
// environment must be reusable across figures.
func TestAllFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	env, err := NewEnv(Config{Scale: "tiny", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if env.DB.Len() != env.P.numGraphs {
		t.Fatalf("db has %d graphs, want %d", env.DB.Len(), env.P.numGraphs)
	}
	for _, size := range env.P.querySizes {
		if len(env.Queries[size]) == 0 {
			t.Fatalf("no queries of size %d", size)
		}
	}

	t9a, err := env.Fig9a()
	if err != nil {
		t.Fatal(err)
	}
	if t9a.NumRows() != len(env.P.querySizes) {
		t.Fatalf("9a rows %d", t9a.NumRows())
	}

	t9b, err := env.Fig9b()
	if err != nil {
		t.Fatal(err)
	}
	if t9b.NumRows() != len(env.P.querySizes) {
		t.Fatalf("9b rows %d", t9b.NumRows())
	}

	a10, b10, err := env.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if a10.NumRows() != len(env.P.epsilons) || b10.NumRows() != len(env.P.epsilons) {
		t.Fatal("fig10 row counts")
	}

	t12, err := env.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(t12) != 4 {
		t.Fatalf("fig12 produced %d tables, want 4", len(t12))
	}

	t13, err := env.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if t13.NumRows() != len(env.P.dbSizes) {
		t.Fatal("fig13 row counts")
	}

	t14, err := env.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if t14.NumRows() != len(env.P.epsilons) {
		t.Fatal("fig14 row counts")
	}

	// All tables render.
	var buf bytes.Buffer
	for _, tb := range t12 {
		tb.Render(&buf)
	}
	t9a.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("rendering produced nothing")
	}
}

func TestPresets(t *testing.T) {
	for _, scale := range []string{"tiny", "small", "full", "bogus"} {
		p := presetFor(scale)
		if p.numGraphs <= 0 || len(p.querySizes) == 0 || len(p.epsilons) == 0 {
			t.Fatalf("preset %q incomplete: %+v", scale, p)
		}
		if p.defaultEpsilon <= 0 || p.defaultEpsilon > 1 {
			t.Fatalf("preset %q epsilon out of range", scale)
		}
	}
}
