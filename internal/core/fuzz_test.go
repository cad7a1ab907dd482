package core

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"
)

// FuzzLoadDatabase drives the snapshot loader — format sniffing, the v5
// text decoder and the v4 binary cursor, and the one section decoder
// behind both — with arbitrary bytes, and queries what loads. The contract
// under fuzzing is purely defensive: a corrupt snapshot must produce an
// error, never a panic, an index out of range, or an attempt to allocate
// slabs the input cannot back — and a snapshot that loads must answer a
// query (an error is fine, a panic is not). The corpus seeds every
// checked-in fixture, a v4 and a v5 fixture without their struct section,
// and truncations and bit flips of one fixture per encoding, which walk
// the cursor through its bounds checks and the text decoder through its
// tag, count and framing checks.
func FuzzLoadDatabase(f *testing.F) {
	for _, name := range []string{"v1_tiny.pgsnapb", "v2_tiny.pgsnapb", "v5_tiny.pgsnap",
		"v5_tiny_tombs.pgsnap", "v4_tiny.pgsnapb", "v4_tiny_tombs.pgsnapb",
		"v5_tiny_oldlayout.pgsnap", "v4_tiny_oldlayout.pgsnapb",
		"v5_tiny_tombs_oldlayout.pgsnap", "v4_tiny_tombs_oldlayout.pgsnapb"} {
		if b, err := os.ReadFile(fixturePath(name)); err == nil {
			f.Add(b)
		}
	}
	// Older-layout files whose derived tables leave a graph out
	// (TestSnapshotPostingsCannotDisagree): records the loader reads past.
	for old := range oldLayoutFixtures {
		if b, err := os.ReadFile(fixturePath(old)); err == nil {
			f.Add(withoutPostingsOf(f, b, 0, 1))
		}
	}
	for _, name := range []string{"v4_tiny_tombs.pgsnapb", "v5_tiny_tombs.pgsnap"} {
		if b, err := os.ReadFile(fixturePath(name)); err == nil {
			f.Add(withoutSection(f, b, secStruct))
		}
	}
	damaged := func(name string, cuts, flips []int) {
		b, err := os.ReadFile(fixturePath(name))
		if err != nil {
			return
		}
		for _, cut := range append(cuts, len(b)/2, len(b)-1) {
			if cut > 0 && cut < len(b) {
				f.Add(b[:cut])
			}
		}
		for _, pos := range append(flips, len(b)/3, len(b)-2) {
			if pos >= 0 && pos < len(b) {
				c := bytes.Clone(b)
				c[pos] ^= 0x40
				f.Add(c)
			}
		}
	}
	// v4: inside the magic, the section count, the section table.
	damaged("v4_tiny.pgsnapb", []int{1, 7, 8, 9, 24}, []int{0, 8, 12, 16, 24, 40, 64})
	// v5: inside the header, a section marker, the options literal, and
	// (from the tombstone fixture) the generation section's slab line.
	damaged("v5_tiny.pgsnap", []int{5, 10, 18, 26, 40}, []int{7, 12, 20, 27, 60})
	damaged("v5_tiny_tombs.pgsnap", nil, []int{370, 376, 380})
	f.Add([]byte("pgsnap v5\nsection options\nbytes \"{}\"\n"))
	f.Add([]byte("pgsnap v5\nsection options\nbytes \"{}\"\nsection generation\nu64 1\ni32s 9999999999 1\n"))
	f.Add([]byte("pgsnap v6\nsection options\n"))
	f.Add([]byte("PGSNAPB4"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDatabase(bytes.NewReader(data))
		if err != nil {
			return
		}
		if db == nil {
			t.Fatal("LoadDatabase returned nil database without an error")
		}
		v := db.View()
		for gi := range v.Graphs {
			if v.Live(gi) {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				defer cancel()
				v.QueryCtx(ctx, v.Certain[gi], QueryOptions{Delta: 1, Verifier: VerifierNone})
				return
			}
		}
	})
}
