package core

import (
	"fmt"
	"io"

	"probgraph/internal/feature"
)

// Range builds the partition of this view holding global ids [lo, hi):
// the live graphs of that slot range, renumbered contiguously, with the
// structural count rows and PMI columns restricted to them and the full
// mined feature vocabulary carried over (supports remapped). The
// partition remembers each slot's global id, and all per-candidate query
// seeding routes through that map — so a query evaluated on the partition
// returns, for every graph it holds, exactly the verdict and SSP the full
// database computes for the same graph, bitwise. That is the contract a
// sharded cluster's merge relies on.
//
// The partition keeps the source view's generation (shards of the same
// database report the same generation, which is how a coordinator detects
// a mixed fleet). Tombstoned slots inside [lo, hi) are dropped — their
// global ids simply don't appear in the partition. A range with no live
// slots is an error, as is partitioning a partition.
func (v *View) Range(lo, hi int) (*View, error) {
	if v.gids != nil {
		return nil, fmt.Errorf("core: range [%d,%d): %w", lo, hi, ErrPartitioned)
	}
	if lo < 0 || hi > v.Len() || lo >= hi {
		return nil, fmt.Errorf("core: range [%d,%d) out of bounds [0,%d)", lo, hi, v.Len())
	}
	var gids []int
	for gi := lo; gi < hi; gi++ {
		if v.Live(gi) {
			gids = append(gids, gi)
		}
	}
	if len(gids) == 0 {
		return nil, fmt.Errorf("core: range [%d,%d) holds no live graphs", lo, hi)
	}
	nv := v.project(gids)
	nv.Generation, nv.gids = v.Generation, gids
	return nv, nil
}

// project builds the view holding the given slots (ascending), renumbered
// contiguously with their graphs and engine cells, the full mined feature
// vocabulary carried over (supports remapped). Each index's Select
// restricts it to the kept graphs — count rows and PMI bound entries are
// carried over bitwise, so pruning decisions on the projection match the
// source's. Compaction and range partitioning are this one projection;
// the caller sets Generation and gids.
func (v *View) project(slots []int) *View {
	nv := &View{opt: v.opt, Build: v.Build}
	remap := make([]int, v.Len()) // old slot → new slot, -1 when dropped
	for gi := range remap {
		remap[gi] = -1
	}
	for i, gi := range slots {
		remap[gi] = i
		nv.Graphs = append(nv.Graphs, v.Graphs[gi])
		nv.engines = append(nv.engines, v.engines[gi])
		nv.Certain = append(nv.Certain, v.Certain[gi])
	}
	nv.Features = make([]*feature.Feature, len(v.Features))
	for i, f := range v.Features {
		cp := *f
		cp.Support = nil
		for _, gi := range f.Support {
			if gi < len(remap) && remap[gi] >= 0 {
				cp.Support = append(cp.Support, remap[gi])
			}
		}
		nv.Features[i] = &cp
	}
	nv.Struct = v.Struct.Select(slots)
	nv.PMI = v.PMI.Select(slots)
	nv.Build.IndexSizeBytes = nv.PMI.SizeBytes()
	return nv
}

// Partition wraps View.Range in a Database, ready to serve. The database
// is read-only (see ErrPartitioned).
func (db *Database) Partition(lo, hi int) (*Database, error) {
	pv, err := db.View().Range(lo, hi)
	if err != nil {
		return nil, err
	}
	return newFromView(pv), nil
}

// SaveRange writes the partition holding global ids [lo, hi) as a
// snapshot in the given format. Loading it (LoadDatabase / OpenSnapshot)
// yields a read-only partition whose queries are bitwise-identical to the
// full database's for the graphs it holds — the shard bootstrap path of a
// distributed deployment.
func (v *View) SaveRange(w io.Writer, lo, hi int, format SnapshotFormat) error {
	pv, err := v.Range(lo, hi)
	if err != nil {
		return err
	}
	return pv.SaveAs(w, format)
}

// SaveRangeFile atomically writes a range partition of the current view
// to path; see View.SaveRange and View.SaveFile.
func (db *Database) SaveRangeFile(path string, lo, hi int, format SnapshotFormat) error {
	pv, err := db.View().Range(lo, hi)
	if err != nil {
		return err
	}
	return pv.SaveFile(path, format)
}

// PartitionRanges splits n slots into the given number of contiguous
// [lo, hi) ranges, as evenly as possible (earlier ranges take the
// remainder). This is the canonical cluster partition rule: every slot
// lands in exactly one range, in order. shards must be in [1, n].
func PartitionRanges(n, shards int) ([][2]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: partitioning empty database")
	}
	if shards < 1 || shards > n {
		return nil, fmt.Errorf("core: shard count %d out of range [1,%d]", shards, n)
	}
	out := make([][2]int, 0, shards)
	base, rem := n/shards, n%shards
	lo := 0
	for i := 0; i < shards; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out, nil
}
