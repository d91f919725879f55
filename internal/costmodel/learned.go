package costmodel

import (
	"math/rand"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// TenSetMLP is the statement-feature MLP baseline (TenSet's cost model and
// the stand-in for Ansor's learned model): every innermost statement's
// 164-dim feature row is embedded, per-program embeddings are summed, and
// a linear head emits the score.
type TenSetMLP struct {
	embed *nn.MLP
	head  *nn.MLP
	adam  *nn.Adam
	seed  int64
	pool  *parallel.Pool
	memo  *schedule.Memo
	mo    *modelObs
	tr    *trainer
}

// NewTenSetMLP builds the model with the given init seed.
func NewTenSetMLP(seed int64) *TenSetMLP {
	m := newTenSetMLPArch(seed)
	m.adam = nn.NewAdam(m.Params(), 7e-4)
	return m
}

// newTenSetMLPArch builds the architecture alone — what training
// replicas need; they alias the live weights and never step, so they
// skip the optimiser's moment buffers.
func newTenSetMLPArch(seed int64) *TenSetMLP {
	rng := rand.New(rand.NewSource(seed))
	return &TenSetMLP{
		embed: nn.NewMLP(rng, features.StmtDim, 128, 128),
		head:  nn.NewMLP(rng, 128, 64, 1),
		seed:  seed,
	}
}

// Name implements Model.
func (m *TenSetMLP) Name() string { return "tensetmlp" }

// Params implements Model.
func (m *TenSetMLP) Params() []*nn.Tensor {
	return append(m.embed.Params(), m.head.Params()...)
}

// Costs implements Model.
func (m *TenSetMLP) Costs() Costs { return Costs{FeatureX: 1, InferX: 1, TrainX: 1} }

// SetPool implements PoolUser.
func (m *TenSetMLP) SetPool(p *parallel.Pool) { m.pool = p }

// SetMemo implements MemoUser.
func (m *TenSetMLP) SetMemo(mm *schedule.Memo) { m.memo = mm }

// SetObserver implements ObsUser.
func (m *TenSetMLP) SetObserver(o *obs.Observer) { m.mo = newModelObs(o, m.Name()) }

// forward is the model's one batched forward, run on the tape by Fit and
// on an arena by Predict: the whole batch's statement rows run through
// the embedding in one fused pair of GEMMs and pool per candidate via a
// segmented sum. Row-wise ops and the order-preserving segment reduction
// keep each score bitwise identical to the per-candidate reference
// forward (reference_test.go).
//
//pruner:hotpath
func (m *TenSetMLP) forward(e nn.Exec, lws []*schedule.Lowered) *nn.Tensor {
	rows, lens := statementBatch(lws)
	return e.MLP(m.head, e.SegmentSum(e.MLPReLURows(m.embed, rows), lens))
}

// trainer lazily builds the model's parallel training state: replicas of
// the same architecture and seed whose weights alias the live model.
func (m *TenSetMLP) trainer() *trainer {
	if m.tr == nil {
		m.tr = newTrainer(m.Params(), func() *replica {
			r := newTenSetMLPArch(m.seed)
			nn.AliasParams(r.Params(), m.Params())
			return &replica{forward: r.forward, params: r.Params()}
		})
	}
	return m.tr
}

// Predict implements Model: candidates run through forward on the
// batched inference path (batch.go), bitwise identical to the
// per-candidate reference path.
func (m *TenSetMLP) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	return m.mo.predict(len(schs), func() []float64 {
		return predictBatched(m.pool, m.Params(), m.memo, t, schs, m.forward)
	})
}

// Fit implements Model: training runs on the data-parallel engine over
// the session pool (rankFit, model.go).
func (m *TenSetMLP) Fit(recs []Record, opt FitOptions) FitReport {
	return m.mo.fit(len(recs), func() FitReport {
		return rankFit(recs, opt, m.adam, m.pool, m.seed, m.trainer())
	})
}

// PaCM is the paper's Pattern-aware Cost Model: a multi-branch network
// combining summed statement embeddings with a self-attention encoding of
// the temporal dataflow feature sequence (Figure 4). Branches can be
// disabled for the Table 12 ablations (w/o S.F., w/o T.D.F).
type PaCM struct {
	// UseStatement / UseDataflow select the active branches.
	UseStatement bool
	UseDataflow  bool

	stmtEmbed *nn.MLP
	dfProj    *nn.Linear
	dfAttn    *nn.SelfAttention
	head      *nn.MLP
	adam      *nn.Adam
	seed      int64
	pool      *parallel.Pool
	memo      *schedule.Memo
	mo        *modelObs
	tr        *trainer
}

const (
	pacmStmtDim = 96
	pacmDfDim   = 48
)

// NewPaCM builds the full two-branch model.
func NewPaCM(seed int64) *PaCM { return newPaCM(seed, true, true) }

// NewPaCMAblated builds a PaCM with selected branches, for ablations.
func NewPaCMAblated(seed int64, useStatement, useDataflow bool) *PaCM {
	if !useStatement && !useDataflow {
		panic("costmodel: PaCM needs at least one branch")
	}
	return newPaCM(seed, useStatement, useDataflow)
}

func newPaCM(seed int64, useStmt, useDf bool) *PaCM {
	m := newPaCMArch(seed, useStmt, useDf)
	m.adam = nn.NewAdam(m.Params(), 7e-4)
	return m
}

// newPaCMArch builds the architecture alone (see newTenSetMLPArch).
func newPaCMArch(seed int64, useStmt, useDf bool) *PaCM {
	rng := rand.New(rand.NewSource(seed))
	m := &PaCM{
		UseStatement: useStmt,
		UseDataflow:  useDf,
		stmtEmbed:    nn.NewMLP(rng, features.StmtDim, pacmStmtDim, pacmStmtDim),
		dfProj:       nn.NewLinear(rng, features.DataflowDim, pacmDfDim),
		dfAttn:       nn.NewSelfAttention(rng, pacmDfDim),
		seed:         seed,
	}
	width := 0
	if useStmt {
		width += pacmStmtDim
	}
	if useDf {
		width += pacmDfDim
	}
	m.head = nn.NewMLP(rng, width, 64, 1)
	return m
}

// Name implements Model.
func (m *PaCM) Name() string {
	switch {
	case !m.UseStatement:
		return "pacm-no-sf"
	case !m.UseDataflow:
		return "pacm-no-tdf"
	default:
		return "pacm"
	}
}

// Params implements Model. All branch parameters are always exposed so
// Siamese snapshots stay architecture-compatible across ablations.
func (m *PaCM) Params() []*nn.Tensor {
	ps := m.stmtEmbed.Params()
	ps = append(ps, m.dfProj.Params()...)
	ps = append(ps, m.dfAttn.Params()...)
	return append(ps, m.head.Params()...)
}

// Costs implements Model: slightly heavier than the MLP, far lighter than
// TLP.
func (m *PaCM) Costs() Costs { return Costs{FeatureX: 1.1, InferX: 1.2, TrainX: 1.6} }

// SetPool implements PoolUser.
func (m *PaCM) SetPool(p *parallel.Pool) { m.pool = p }

// SetMemo implements MemoUser.
func (m *PaCM) SetMemo(mm *schedule.Memo) { m.memo = mm }

// SetObserver implements ObsUser.
func (m *PaCM) SetObserver(o *obs.Observer) { m.mo = newModelObs(o, m.Name()) }

// forward is the model's one batched forward (see TenSetMLP.forward),
// honouring the branch ablation flags: the statement branch pools fused
// embeddings with a segmented sum; the dataflow branch deduplicates the
// zero-padded rows — a large share of rows across a batch are identical
// — projects each distinct row once, and runs the segment attention.
//
//pruner:hotpath
func (m *PaCM) forward(e nn.Exec, lws []*schedule.Lowered) *nn.Tensor {
	var parts *nn.Tensor
	if m.UseStatement {
		rows, lens := statementBatch(lws)
		parts = e.SegmentSum(e.MLPReLURows(m.stmtEmbed, rows), lens)
	}
	if m.UseDataflow {
		lens := make([]int, len(lws))
		rows := make([][]float64, 0, len(lws)*features.DataflowSeq)
		for i, lw := range lws {
			rows = append(rows, features.Dataflow(lw)...)
			lens[i] = features.DataflowSeq
		}
		uniq, idx := nn.DedupRows(rows)
		tokens := e.Tanh(e.LinearRows(m.dfProj, uniq))
		ctx := e.SegmentMean(e.AttentionDedup(m.dfAttn, tokens, idx, lens), lens)
		if parts == nil {
			parts = ctx
		} else {
			parts = e.ConcatCols(parts, ctx)
		}
	}
	return e.MLP(m.head, parts)
}

// trainer lazily builds the model's parallel training state; replicas
// reproduce the branch ablation flags so their head widths match.
func (m *PaCM) trainer() *trainer {
	if m.tr == nil {
		m.tr = newTrainer(m.Params(), func() *replica {
			r := newPaCMArch(m.seed, m.UseStatement, m.UseDataflow)
			nn.AliasParams(r.Params(), m.Params())
			return &replica{forward: r.forward, params: r.Params()}
		})
	}
	return m.tr
}

// Predict implements Model: candidates run through forward on the
// batched inference path (batch.go), bitwise identical to the
// per-candidate reference path.
func (m *PaCM) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	return m.mo.predict(len(schs), func() []float64 {
		return predictBatched(m.pool, m.Params(), m.memo, t, schs, m.forward)
	})
}

// Fit implements Model: training runs on the data-parallel engine over
// the session pool (rankFit, model.go).
func (m *PaCM) Fit(recs []Record, opt FitOptions) FitReport {
	return m.mo.fit(len(recs), func() FitReport {
		return rankFit(recs, opt, m.adam, m.pool, m.seed, m.trainer())
	})
}

// TLP is the schedule-primitive transformer baseline. Its tokens are
// near-constant one-hots where only split factors vary, which makes small
// online datasets hard to learn from — the behaviour behind the paper's
// disappearing tuning curves.
type TLP struct {
	proj *nn.Linear
	attn *nn.SelfAttention
	head *nn.MLP
	adam *nn.Adam
	seed int64
	pool *parallel.Pool
	memo *schedule.Memo
	mo   *modelObs
	tr   *trainer
}

// NewTLP builds the model.
func NewTLP(seed int64) *TLP {
	m := newTLPArch(seed)
	// TLP trains with a higher learning rate on sparse features; this is
	// part of why online fine-tuning can destabilise it.
	m.adam = nn.NewAdam(m.Params(), 1.2e-3)
	return m
}

// newTLPArch builds the architecture alone (see newTenSetMLPArch).
func newTLPArch(seed int64) *TLP {
	rng := rand.New(rand.NewSource(seed))
	m := &TLP{
		proj: nn.NewLinear(rng, features.PrimDim, features.PrimDim),
		attn: nn.NewSelfAttention(rng, features.PrimDim),
		seed: seed,
	}
	m.head = nn.NewMLP(rng, features.PrimDim, 64, 1)
	return m
}

// Name implements Model.
func (m *TLP) Name() string { return "tlp" }

// Params implements Model.
func (m *TLP) Params() []*nn.Tensor {
	ps := m.proj.Params()
	ps = append(ps, m.attn.Params()...)
	return append(ps, m.head.Params()...)
}

// Costs implements Model: cheap features, heavy model.
func (m *TLP) Costs() Costs { return Costs{FeatureX: 0.35, InferX: 3.5, TrainX: 8} }

// SetPool implements PoolUser.
func (m *TLP) SetPool(p *parallel.Pool) { m.pool = p }

// SetMemo implements MemoUser.
func (m *TLP) SetMemo(mm *schedule.Memo) { m.memo = mm }

// SetObserver implements ObsUser.
func (m *TLP) SetObserver(o *obs.Observer) { m.mo = newModelObs(o, m.Name()) }

// forward is the model's one batched forward (see TenSetMLP.forward):
// primitive tokens are near-constant one-hots that repeat heavily across
// a batch, so the projection and the attention's Q/K/V run once per
// distinct row and the per-candidate score means fall out of a segmented
// reduction.
//
//pruner:hotpath
func (m *TLP) forward(e nn.Exec, lws []*schedule.Lowered) *nn.Tensor {
	lens := make([]int, len(lws))
	rows := make([][]float64, 0, len(lws)*features.PrimSeq)
	for i, lw := range lws {
		r := features.Primitives(lw)
		rows = append(rows, r...)
		lens[i] = len(r)
	}
	uniq, idx := nn.DedupRows(rows)
	x := e.AttentionDedup(m.attn, e.LinearRows(m.proj, uniq), idx, lens)
	return e.MLP(m.head, e.SegmentMean(x, lens))
}

// trainer lazily builds the model's parallel training state.
func (m *TLP) trainer() *trainer {
	if m.tr == nil {
		m.tr = newTrainer(m.Params(), func() *replica {
			r := newTLPArch(m.seed)
			nn.AliasParams(r.Params(), m.Params())
			return &replica{forward: r.forward, params: r.Params()}
		})
	}
	return m.tr
}

// Predict implements Model: candidates run through forward on the
// batched inference path (batch.go), bitwise identical to the
// per-candidate reference path.
func (m *TLP) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	return m.mo.predict(len(schs), func() []float64 {
		return predictBatched(m.pool, m.Params(), m.memo, t, schs, m.forward)
	})
}

// Fit implements Model: training runs on the data-parallel engine over
// the session pool (rankFit, model.go).
func (m *TLP) Fit(recs []Record, opt FitOptions) FitReport {
	return m.mo.fit(len(recs), func() FitReport {
		return rankFit(recs, opt, m.adam, m.pool, m.seed, m.trainer())
	})
}

// PoolUser is implemented by models whose batched inference can run on a
// caller-provided worker pool. The tuner injects its session pool so one
// Parallelism knob governs every layer of a session.
type PoolUser interface {
	SetPool(p *parallel.Pool)
}
