package pmi

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"probgraph/internal/feature"
)

// TestWithColumnMatchesBuild: growing the matrix one copy-on-write column
// at a time produces exactly the entries a from-scratch Build over the
// final database would (the incremental path uses the same per-graph seed
// derivation), and no link of the chain mutates its predecessor.
func TestWithColumnMatchesBuild(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 3, 6, true)
	full := mustBuild(t, graphs, engines, feats, NewOptions())

	// Seed the chain with the first 3 graphs. Build consumes Support
	// lists, which cover the full database — truncate them to the prefix
	// (Support is the exact containment list, so this equals mining over
	// the prefix with the same vocabulary); WithColumn re-checks
	// containment itself for the rest.
	prefixFeats := make([]*feature.Feature, len(feats))
	for i, f := range feats {
		cp := *f
		cp.Support = nil
		for _, gi := range f.Support {
			if gi < 3 {
				cp.Support = append(cp.Support, gi)
			}
		}
		prefixFeats[i] = &cp
	}
	base := mustBuild(t, graphs[:3], engines[:3], prefixFeats, NewOptions())
	chain := []*Index{base}
	for gi := 3; gi < len(graphs); gi++ {
		next, err := chain[len(chain)-1].WithColumn(graphs[gi], engines[gi])
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
	}
	for li, idx := range chain {
		wantCols := 3 + li
		if idx.NumGraphs() != wantCols {
			t.Fatalf("link %d: %d columns, want %d", li, idx.NumGraphs(), wantCols)
		}
	}
	final := chain[len(chain)-1]
	for fi := range full.Features {
		for gi := 0; gi < full.NumGraphs(); gi++ {
			if full.At(fi, gi) != final.At(fi, gi) {
				t.Fatalf("entry (%d,%d): incremental %+v != built %+v",
					fi, gi, final.At(fi, gi), full.At(fi, gi))
			}
		}
	}
}

// TestCOWFreedColumnSaveAndSelect: a freed column serializes as uncontained,
// the predecessor index is untouched, save→load→save of the freed index is
// byte-stable, and Select of the surviving slots equals a matrix that never
// contained the column.
func TestCOWFreedColumnSaveAndSelect(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 5, 5, false)
	idx := mustBuild(t, graphs, engines, feats, NewOptions())
	const dead = 2
	freed := idx.WithFreedColumns(dead)
	contained := 0
	for fi := range idx.Features {
		if freed.At(fi, dead) != (Entry{}) {
			t.Fatalf("row %d: freed column reads %+v, want ⟨0⟩", fi, freed.At(fi, dead))
		}
		if idx.At(fi, dead).Contained {
			contained++
		}
	}
	if contained == 0 {
		t.Fatal("freeing mutated the predecessor (or the column was empty to begin with)")
	}

	for _, codec := range snapCodecs {
		freedOut := codec.save(t, freed)
		loaded, err := codec.load(freedOut, len(graphs))
		if err != nil {
			t.Fatal(err)
		}
		for fi := range loaded.Features {
			if loaded.At(fi, dead).Contained {
				t.Fatalf("%s row %d: freed column survived the save as contained", codec.name, fi)
			}
		}
		if second := codec.save(t, loaded.WithFreedColumns(dead)); !bytes.Equal(freedOut, second) {
			t.Fatalf("%s: freed save→load→save not byte-stable", codec.name)
		}
	}

	survivors := []int{0, 1, 3, 4}
	selected := freed.Select(survivors)
	if selected.NumGraphs() != len(survivors) {
		t.Fatalf("%d columns after Select, want %d", selected.NumGraphs(), len(survivors))
	}
	for fi := range selected.Features {
		for gi, src := range survivors {
			if selected.At(fi, gi) != idx.At(fi, src) {
				t.Fatalf("selected entry (%d,%d) != original (%d,%d)", fi, gi, fi, src)
			}
		}
	}
}

// TestWithReplacedColumn: replacing a column yields the entries the graph
// would have received at insertion time (same slot seed), freed or not.
func TestWithReplacedColumn(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 7, 5, true)
	idx := mustBuild(t, graphs, engines, feats, NewOptions())
	const slot = 1
	repl, err := idx.WithFreedColumns(slot).WithReplacedColumn(slot, graphs[slot], engines[slot])
	if err != nil {
		t.Fatal(err)
	}
	// Replacing a slot with the graph it already holds reproduces the
	// built entries bitwise: the column seed depends only on the slot.
	for fi := range idx.Features {
		if repl.At(fi, slot) != idx.At(fi, slot) {
			t.Fatalf("row %d: self-replacement changed the entry", fi)
		}
	}
}

// TestCOWReplacedColumnCopiesPointers: replacing one column of a
// 1 000-column matrix allocates, beyond the column itself, one slice header
// per column — not a copy of every feature's row.
func TestCOWReplacedColumnCopiesPointers(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 9, 6, true)
	small := mustBuild(t, graphs, engines, feats, NewOptions())
	const slots = 1000
	wide := small
	for wide.NumGraphs() < slots {
		i := wide.NumGraphs() % len(graphs)
		var err error
		if wide, err = wide.WithColumn(graphs[i], engines[i]); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(idx *Index) uint64 {
		best := ^uint64(0)
		for trial := 0; trial < 5; trial++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := idx.WithReplacedColumn(1, graphs[1], engines[1]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	narrow, broad := allocated(small), allocated(wide)
	perSlot := float64(broad-narrow) / float64(slots-small.NumGraphs())
	header, row := float64(unsafe.Sizeof([]Entry(nil))), float64(len(feats))*float64(unsafe.Sizeof(Entry{}))
	t.Logf("replace at %d columns: %d B, at %d: %d B — %.1f B per extra column (a slice header is %.0f B, a copied row %.0f B)",
		small.NumGraphs(), narrow, slots, broad, perSlot, header, row)
	if perSlot > 2*header || perSlot > row/4 {
		t.Fatalf("WithReplacedColumn allocates %.1f B per column of the matrix, want about one %.0f B slice header", perSlot, header)
	}
}
