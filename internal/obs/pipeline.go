package obs

import "context"

// Pipeline aggregates query-pipeline counters across all queries served
// by one process: candidate flow through the filter → prune → verify
// funnel, and per-stage compute histograms. The server attaches it to
// each request context (ContextWithPipeline); core's query exit adds its
// per-query stats to these counters and histograms — one bridge, so
// /metrics and per-query stats can't diverge.
type Pipeline struct {
	StructCandidates *Counter
	StructConfirmed  *Counter
	PrunedUpper      *Counter
	AcceptedLower    *Counter
	Verified         *Counter
	Answers          *Counter
	Relaxed          *Counter

	VerifyRejectedByBound *Counter
	VerifyDecidedExactly  *Counter
	VerifySamples         *Counter

	StageStruct *Histogram
	StageProb   *Histogram
	StageVerify *Histogram
}

// NewPipeline registers the pipeline families on r.
func NewPipeline(r *Registry) *Pipeline {
	return &Pipeline{
		StructCandidates: r.Counter("pg_struct_filter_candidates_total",
			"Candidates emitted by the structural feature-miss filter, before exact confirmation."),
		StructConfirmed: r.Counter("pg_struct_confirmed_total",
			"Structural candidates confirmed by exact subgraph-distance check (|SCq|)."),
		PrunedUpper: r.Counter("pg_candidates_pruned_total",
			"Candidates discarded by the PMI upper bound (Pruning 1).", "rule", "upper"),
		AcceptedLower: r.Counter("pg_candidates_accepted_total",
			"Candidates accepted outright by the PMI lower bound (Pruning 2).", "rule", "lower"),
		Verified: r.Counter("pg_candidates_verified_total",
			"Candidates sent to SSP verification."),
		Answers: r.Counter("pg_answers_total",
			"Answers returned across all queries."),
		Relaxed: r.Counter("pg_relaxed_queries_total",
			"Relaxed queries generated (|U|) across all queries."),
		VerifyRejectedByBound: r.Counter("pg_verify_decisions_total",
			"Verification candidates by the ladder rung that decided them without sampling.", "rung", "bound"),
		VerifyDecidedExactly: r.Counter("pg_verify_decisions_total",
			"Verification candidates by the ladder rung that decided them without sampling.", "rung", "exact"),
		VerifySamples: r.Counter("pg_verify_samples_total",
			"Possible worlds drawn by the SMP sampler."),
		StageStruct: r.Histogram("pg_stage_duration_seconds",
			"Per-query compute spent in each pipeline stage.", nil, "stage", "struct"),
		StageProb: r.Histogram("pg_stage_duration_seconds",
			"Per-query compute spent in each pipeline stage.", nil, "stage", "prob"),
		StageVerify: r.Histogram("pg_stage_duration_seconds",
			"Per-query compute spent in each pipeline stage.", nil, "stage", "verify"),
	}
}

type pipelineCtxKey struct{}

// ContextWithPipeline attaches p so the engine's query exit can report
// stage stats. Attaching nil returns ctx unchanged.
func ContextWithPipeline(ctx context.Context, p *Pipeline) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, pipelineCtxKey{}, p)
}

// PipelineFrom returns the attached pipeline, or nil. Never allocates.
func PipelineFrom(ctx context.Context) *Pipeline {
	p, _ := ctx.Value(pipelineCtxKey{}).(*Pipeline)
	return p
}
