package prob

// RefEngine hands the reference engine of engine_ref_test.go to this
// directory's external tests, which need packages that import prob
// (dataset for PPI-like graphs, verify for SMP).
type RefEngine = refEngine

// NewRefEngine builds a reference engine for pg with no evidence.
func NewRefEngine(pg *PGraph) (*RefEngine, error) { return newRefEngine(pg) }
