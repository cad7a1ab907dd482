package pmi

import (
	"bytes"
	"testing"

	"probgraph/internal/feature"
)

// TestWithColumnMatchesBuild: growing the matrix one copy-on-write column
// at a time produces exactly the entries a from-scratch Build over the
// final database would (the incremental path uses the same per-graph seed
// derivation), and no link of the chain mutates its predecessor.
func TestWithColumnMatchesBuild(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 3, 6, true)
	full, err := Build(graphs, engines, feats, NewOptions())
	if err != nil {
		t.Fatal(err)
	}

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
	base, err := Build(graphs[:3], engines[:3], prefixFeats, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
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
		for fi := range idx.Entries {
			if len(idx.Entries[fi]) != wantCols {
				t.Fatalf("link %d row %d: %d columns, want %d", li, fi, len(idx.Entries[fi]), wantCols)
			}
		}
	}
	final := chain[len(chain)-1]
	for fi := range full.Entries {
		for gi := range full.Entries[fi] {
			if full.Entries[fi][gi] != final.Entries[fi][gi] {
				t.Fatalf("entry (%d,%d): incremental %+v != built %+v",
					fi, gi, final.Entries[fi][gi], full.Entries[fi][gi])
			}
		}
	}
}

// TestMaskedColumnSaveAndCompact: a masked column serializes as
// uncontained, the predecessor index is untouched, save→load→save of the
// masked index is byte-stable, and CompactedColumns equals a matrix that
// never contained the column.
func TestMaskedColumnSaveAndCompact(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 5, 5, false)
	idx, err := Build(graphs, engines, feats, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	const dead = 2
	masked := idx.WithMaskedColumn(dead)
	if idx.MaskedColumns() != 0 || idx.Masked(dead) {
		t.Fatal("masking mutated the predecessor")
	}
	if masked.MaskedColumns() != 1 || !masked.Masked(dead) {
		t.Fatal("mask not recorded")
	}
	// Idempotent and bulk-compatible.
	if again := masked.WithMaskedColumns([]int{dead}); again.MaskedColumns() != 1 {
		t.Fatal("re-masking double-counted")
	}

	for _, codec := range snapCodecs {
		maskedOut := codec.save(t, masked)
		loaded, err := codec.load(maskedOut, len(graphs))
		if err != nil {
			t.Fatal(err)
		}
		for fi := range loaded.Entries {
			if loaded.Entries[fi][dead].Contained {
				t.Fatalf("%s row %d: masked column survived the save as contained", codec.name, fi)
			}
		}
		if second := codec.save(t, loaded.WithMaskedColumns([]int{dead})); !bytes.Equal(maskedOut, second) {
			t.Fatalf("%s: masked save→load→save not byte-stable", codec.name)
		}
	}

	compacted := masked.CompactedColumns()
	for fi := range compacted.Entries {
		if len(compacted.Entries[fi]) != len(graphs)-1 {
			t.Fatalf("row %d: %d columns after compaction, want %d",
				fi, len(compacted.Entries[fi]), len(graphs)-1)
		}
		for gi := range compacted.Entries[fi] {
			src := gi
			if gi >= dead {
				src = gi + 1
			}
			if compacted.Entries[fi][gi] != idx.Entries[fi][src] {
				t.Fatalf("compacted entry (%d,%d) != original (%d,%d)", fi, gi, fi, src)
			}
		}
	}
}

// TestWithReplacedColumn: replacing a column yields the entries the graph
// would have received at insertion time (same slot seed), and clears any
// mask on the slot.
func TestWithReplacedColumn(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 7, 5, true)
	idx, err := Build(graphs, engines, feats, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	const slot = 1
	masked := idx.WithMaskedColumn(slot)
	repl, err := masked.WithReplacedColumn(slot, graphs[slot], engines[slot])
	if err != nil {
		t.Fatal(err)
	}
	if repl.Masked(slot) || repl.MaskedColumns() != 0 {
		t.Fatal("replacement did not clear the slot's mask")
	}
	// Replacing a slot with the graph it already holds reproduces the
	// built entries bitwise: the column seed depends only on the slot.
	for fi := range idx.Entries {
		if repl.Entries[fi][slot] != idx.Entries[fi][slot] {
			t.Fatalf("row %d: self-replacement changed the entry", fi)
		}
	}
}
