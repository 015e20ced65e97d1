package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"insightalign/internal/nn"
	"insightalign/internal/recipe"
	"insightalign/internal/tensor"
)

// Decoder is an incremental decoding session bound to one design insight.
// Construction projects the insight memory and each layer's cross-attention
// keys/values once; every subsequent decode (beam search, sampling, greedy,
// step probabilities) reuses them and advances one token at a time through
// per-sequence KV caches, so a full n-step decode costs O(n) decoder passes
// instead of the naive O(n²).
//
// Decoding runs on the tape-free kernel fast path: flattened weight views
// (nn.FlatDecoderLayer) drive raw []float64 kernels over pooled contiguous
// buffers, bypassing *Tensor wrappers, tape construction, and the NoGrad
// counter entirely. The fast path reproduces the tape path's floating-point
// operations exactly — see TestCachedBeamSearchMatchesNaive and
// TestStepFlatMatchesStep — and a warm session performs near-zero heap
// allocation per decode (guarded by TestDecodeAllocBudget).
//
// A Decoder is safe for concurrent use by multiple goroutines as long as
// the model parameters are not being mutated (trained) at the same time:
// all shared state is read-only after construction, and per-call working
// memory comes from the model's session pool. Because the fast path never
// touches the process-global NoGrad counter, decoding may also run
// concurrently with a tape-building training forward on another model (or
// a gradient evaluation on this one) without truncating that tape.
type Decoder struct {
	m     *Model
	flat  []*nn.FlatDecoderLayer // flattened per-layer weight views
	qkv   []*nn.FlatQKV          // per layer, fused self q|k|v projection (nil on the table path)
	l0    *l0Table               // single-layer decode tables, nil for deeper models
	cross []*nn.FlatCross        // per layer, over the insight memory
	emb   []float64              // decision embedding table (vocab, dim)
	pos   []float64              // positional table (n, dim)
	outW  []float64              // output projection weight (dim, 1)
	outB  []float64              // output projection bias (1)
}

// NewDecoder precomputes the shared per-query state of the incremental
// decoding engine for one insight vector: the insight memory projection and
// each layer's cross K/V — exactly one projection per request, reused by
// every subsequent step and beam.
func (m *Model) NewDecoder(iv []float64) *Decoder {
	if len(iv) != m.Cfg.InsightDim {
		panic(fmt.Sprintf("core: insight vector has %d dims, want %d", len(iv), m.Cfg.InsightDim))
	}
	dim := m.Cfg.EmbedDim
	d := &Decoder{
		m:     m,
		flat:  m.flatLayers(),
		l0:    m.l0Table(),
		cross: make([]*nn.FlatCross, len(m.Decoders)),
		emb:   m.DecisionEmbed.Table.Data,
		pos:   m.PosEnc.Table.Data,
		outW:  m.OutProj.W.Data,
		outB:  m.OutProj.B.Data,
	}
	memory := make([]float64, dim)
	tensor.LinearInto(memory, iv, 1, m.Cfg.InsightDim, m.InsightProj.W.Data, dim, m.InsightProj.B.Data)
	if d.l0 == nil {
		d.qkv = make([]*nn.FlatQKV, len(m.Decoders))
		for i, fl := range d.flat {
			d.qkv[i] = fl.FuseQKV()
		}
	}
	for i, fl := range d.flat {
		d.cross[i] = fl.PrecomputeCrossFlat(memory, 1)
	}
	return d
}

// flatLayers returns the cached flattened weight views, built once per
// model. The views alias parameter Data (which Adam and LoadParams mutate
// in place), so they never go stale.
func (m *Model) flatLayers() []*nn.FlatDecoderLayer {
	m.flatOnce.Do(func() {
		m.flat = make([]*nn.FlatDecoderLayer, len(m.Decoders))
		for i, layer := range m.Decoders {
			m.flat[i] = nn.FlattenDecoderLayer(layer)
		}
	})
	return m.flat
}

// fastSession is the pooled working memory of one decode call: flat KV
// cache slots for every layer, per-step scratch, and the beam-search
// bookkeeping arrays. Sessions are shape-bound to their model and grow
// monotonically to the widest beam they have served, so after warm-up a
// decode allocates nothing but its result.
type fastSession struct {
	capB   int // beam capacity; 2·capB cache slots per layer
	n      int // max sequence length
	dim    int
	stride int // n*dim, one cache slot

	// Per layer: contiguous arenas of 2·capB key/value slots. Left empty
	// for single-layer models, whose attention history is the token-index
	// arena below instead (see l0table.go).
	kslots [][]float64
	vslots [][]float64
	// Per-step views into the slots of the live beams, reused across layers.
	kc, vc [][]float64
	// Table path: 2·capB slots of n token indices — a beam's entire
	// attention history.
	idxslots []uint8

	sc *nn.FlatScratch
	h  []float64 // (capB, dim) hidden rows
	z  []float64 // (capB) output logits

	// Beam bookkeeping.
	score, newScore      []float64  // per live beam
	lastBit, newLastBit  []int      // decision entering the next step
	slot, newSlot        []int      // cache slot per live beam
	firstTaker           []int      // per parent: index of the child inheriting its slot
	slotUsed             []bool     // per slot: taken by a survivor this step
	cand                 []fastCand // 2·capB step candidates
	histParent, histBits []int      // (n, capB) parent pointers / decision bits
}

// fastCand is one beam extension: parent beam, decision bit, total score.
type fastCand struct {
	score       float64
	parent, bit int
}

// ensure (re)sizes the session for this model shape and beam width k.
func (s *fastSession) ensure(m *Model, k int) {
	n, dim, hidden := m.Cfg.NumRecipes, m.Cfg.EmbedDim, m.Cfg.FFHidden
	layers := len(m.Decoders)
	if s.capB >= k && s.n == n && s.dim == dim && len(s.kslots) == layers {
		return
	}
	capB := k
	if s.capB > capB {
		capB = s.capB
	}
	s.capB, s.n, s.dim, s.stride = capB, n, dim, n*dim
	s.kslots = make([][]float64, layers)
	s.vslots = make([][]float64, layers)
	if layers == 1 {
		// Single-layer models decode from the token/position tables: beam
		// history is one byte per position, and no K/V rows are ever cached.
		s.idxslots = make([]uint8, 2*capB*n)
	} else {
		for l := range s.kslots {
			s.kslots[l] = make([]float64, 2*capB*s.stride)
			s.vslots[l] = make([]float64, 2*capB*s.stride)
		}
	}
	s.kc = make([][]float64, capB)
	s.vc = make([][]float64, capB)
	s.sc = nn.NewFlatScratch(capB, dim, hidden, 1, n)
	s.h = make([]float64, capB*dim)
	s.z = make([]float64, capB)
	s.score = make([]float64, capB)
	s.newScore = make([]float64, capB)
	s.lastBit = make([]int, capB)
	s.newLastBit = make([]int, capB)
	s.slot = make([]int, capB)
	s.newSlot = make([]int, capB)
	s.firstTaker = make([]int, capB)
	s.slotUsed = make([]bool, 2*capB)
	s.cand = make([]fastCand, 2*capB)
	s.histParent = make([]int, n*capB)
	s.histBits = make([]int, n*capB)
}

// getSession borrows a session sized for beam width k from the model pool.
func (m *Model) getSession(k int) *fastSession {
	s, _ := m.fastPool.Get().(*fastSession)
	if s == nil {
		s = &fastSession{}
	}
	s.ensure(m, k)
	return s
}

func (m *Model) putSession(s *fastSession) { m.fastPool.Put(s) }

// tokenOf maps a 0/1 decision bit to its vocabulary token.
func tokenOf(bit int) int {
	switch bit {
	case 0:
		return TokenNotSelected
	case 1:
		return TokenSelected
	default:
		panic(fmt.Sprintf("core: invalid decision %d", bit))
	}
}

// stepFast advances the b live sequences of s by one token at position t:
// embedding + positional add straight into the flat hidden rows, one
// StepFlat per layer against each sequence's cache slot, then the output
// projection. Sequence i's entering token is SOS at t = 0 and its previous
// decision bit otherwise. Logits land in s.z[:b].
func (d *Decoder) stepFast(s *fastSession, b, t int) {
	if d.l0 != nil {
		d.stepFastL0(s, b, t)
		return
	}
	dim := s.dim
	for i := 0; i < b; i++ {
		tok := TokenSOS
		if t > 0 {
			tok = tokenOf(s.lastBit[i])
		}
		emb := d.emb[tok*dim : (tok+1)*dim]
		pos := d.pos[t*dim : (t+1)*dim]
		row := s.h[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = emb[j] + pos[j]
		}
	}
	for li, fl := range d.flat {
		for i := 0; i < b; i++ {
			off := s.slot[i] * s.stride
			s.kc[i] = s.kslots[li][off : off+s.stride]
			s.vc[i] = s.vslots[li][off : off+s.stride]
		}
		fl.StepFlat(s.h[:b*dim], b, d.qkv[li], d.cross[li], s.kc[:b], s.vc[:b], t, s.sc)
	}
	tensor.LinearInto(s.z[:b], s.h[:b*dim], b, dim, d.outW, 1, d.outB)
}

// stepFastL0 is stepFast on the single-layer decode tables: the hidden
// rows, q/k/v projections, and attention scores all come from (token,
// position) lookups (see l0table.go), so per step each beam performs only
// the softmax, the value gather, and the post-attention tail of the layer.
// The floating-point schedule is identical to the general path — scores
// gathered from the table carry the exact bits DotSkip would produce, the
// softmax and j-ascending value accumulation mirror CausalAttendInto, and
// the tail is the shared StepFlatPost.
func (d *Decoder) stepFastL0(s *fastSession, b, t int) {
	tb := d.l0
	dim, n := s.dim, s.n
	rows := 3 * n
	sc := s.sc
	ctx := sc.Ctx[:b*dim]
	for i := 0; i < b; i++ {
		tok := TokenSOS
		if t > 0 {
			tok = tokenOf(s.lastBit[i])
		}
		idx := s.idxslots[s.slot[i]*n : s.slot[i]*n+n]
		idx[t] = uint8(tok)
		r := tb.row(tok, t)
		copy(s.h[i*dim:(i+1)*dim], tb.h0[r*dim:(r+1)*dim])

		// Attention over positions 0..t: gather precomputed scores, then
		// the same softmax and weighted value sum as CausalAttendInto.
		scores := sc.Scores[:t+1]
		srow := tb.score[r*rows : (r+1)*rows]
		for j := 0; j <= t; j++ {
			scores[j] = srow[int(idx[j])*n+j]
		}
		maxv := math.Inf(-1)
		for _, v := range scores {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range scores {
			e := math.Exp(v - maxv)
			scores[j] = e
			sum += e
		}
		for j := range scores {
			scores[j] /= sum
		}
		crow := ctx[i*dim : (i+1)*dim]
		for j := range crow {
			crow[j] = 0
		}
		for j := 0; j <= t; j++ {
			if w := scores[j]; w != 0 {
				tensor.Axpy(crow, tb.vrow(int(idx[j]), j), w)
			}
		}
	}
	d.flat[0].StepFlatPost(s.h[:b*dim], b, ctx, d.cross[0], sc)
	tensor.LinearInto(s.z[:b], s.h[:b*dim], b, dim, d.outW, 1, d.outB)
}

// sortCandsStable is a stable insertion sort by score, descending — the
// allocation-free twin of sort.SliceStable on the step candidates. Beam
// widths are small (the paper uses K = 5), so O(c²) never matters.
func sortCandsStable(c []fastCand) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i - 1
		for j >= 0 && c[j].score < x.score {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = x
	}
}

// BeamSearch runs Algorithm 1's beam search over this session's insight,
// with all live beams batched into one stacked kernel pass per step. Beam
// sequences are tracked as parent pointers (one (parent, bit) record per
// beam per step) and materialized once at the end, so the per-step cost is
// O(K) bookkeeping instead of O(K·n) prefix copies; beam splits reuse the
// session's cache slots copy-on-fork. Candidates match Model.BeamSearchNaive
// exactly, best-first.
func (d *Decoder) BeamSearch(k int) []Candidate {
	if k < 1 {
		k = 1
	}
	coreMetrics()
	sessionStart := time.Now()
	defer func() {
		beamSessionSecs.Observe(time.Since(sessionStart).Seconds())
		beamSessions.Inc()
	}()
	n := d.m.Cfg.NumRecipes
	s := d.m.getSession(k)
	defer d.m.putSession(s)

	b := 1
	s.slot[0] = 0
	s.score[0] = 0
	for t := 0; t < n; t++ {
		d.stepFast(s, b, t)
		// Extend every beam with r_t ∈ {1, 0} — the same candidate order as
		// the reference path, so stable sorting preserves its tie-breaks.
		nc := 0
		for i := 0; i < b; i++ {
			z := s.z[i]
			s.cand[nc] = fastCand{score: s.score[i] + logSigmoid(z), parent: i, bit: 1}
			s.cand[nc+1] = fastCand{score: s.score[i] + logSigmoid(-z), parent: i, bit: 0}
			nc += 2
		}
		cands := s.cand[:nc]
		sortCandsStable(cands)
		nb := k
		if nc < nb {
			nb = nc
		}
		for i := 0; i < nb; i++ {
			s.histParent[t*s.capB+i] = cands[i].parent
			s.histBits[t*s.capB+i] = cands[i].bit
			s.newScore[i] = cands[i].score
			s.newLastBit[i] = cands[i].bit
		}
		// Reassign cache slots: the first child of each parent inherits the
		// parent's slot in place; later siblings copy into a free slot — the
		// copy-fork of a beam split, without allocating.
		if t < n-1 {
			d.forkSlots(s, b, nb, t)
		}
		copy(s.score[:nb], s.newScore[:nb])
		copy(s.lastBit[:nb], s.newLastBit[:nb])
		b = nb
	}

	out := make([]Candidate, 0, b)
	for i := 0; i < b; i++ {
		seq := make([]int, n)
		bi := i
		for t := n - 1; t >= 0; t-- {
			seq[t] = s.histBits[t*s.capB+bi]
			bi = s.histParent[t*s.capB+bi]
		}
		set, err := recipe.FromBits(padBits(seq, recipe.N))
		if err != nil {
			continue
		}
		out = append(out, Candidate{Set: set, LogProb: s.score[i], Sequence: seq})
	}
	return out
}

// forkSlots maps the nb surviving children of step t onto cache slots:
// inherited where possible, copied (rows [0, t]) where a parent split.
func (d *Decoder) forkSlots(s *fastSession, b, nb, t int) {
	d.forkSlotsReserve(s, b, nb, t, nil)
}

// forkSlotsReserve is forkSlots with a reserved-slot list the free-slot
// scan must never hand out — the seed lanes of a warm-started search keep
// their cache slots pinned for the whole decode.
func (d *Decoder) forkSlotsReserve(s *fastSession, b, nb, t int, reserved []int) {
	for p := 0; p < b; p++ {
		s.firstTaker[p] = -1
	}
	for i := range s.slotUsed {
		s.slotUsed[i] = false
	}
	for _, r := range reserved {
		s.slotUsed[r] = true
	}
	for i := 0; i < nb; i++ {
		p := s.histParent[t*s.capB+i]
		if s.firstTaker[p] == -1 {
			s.firstTaker[p] = i
			s.newSlot[i] = s.slot[p]
			s.slotUsed[s.slot[p]] = true
		}
	}
	free := 0
	rows := (t + 1) * s.dim
	for i := 0; i < nb; i++ {
		p := s.histParent[t*s.capB+i]
		if s.firstTaker[p] == i {
			continue
		}
		for s.slotUsed[free] {
			free++
		}
		s.slotUsed[free] = true
		if d.l0 != nil {
			// Table path: a beam's whole attention history is t+1 token
			// indices — the fork copies bytes, not K/V rows.
			src, dst := s.slot[p]*s.n, free*s.n
			copy(s.idxslots[dst:dst+t+1], s.idxslots[src:src+t+1])
		} else {
			src, dst := s.slot[p]*s.stride, free*s.stride
			for l := range s.kslots {
				copy(s.kslots[l][dst:dst+rows], s.kslots[l][src:src+rows])
				copy(s.vslots[l][dst:dst+rows], s.vslots[l][src:src+rows])
			}
		}
		s.newSlot[i] = free
	}
	copy(s.slot[:nb], s.newSlot[:nb])
}

// maxSeedBeams caps the seed lanes of one warm-started search. Retrieval
// only ever supplies a handful of neighbor sets, and the cap bounds the
// extra kernel width (k + S lanes per step) a hostile or misconfigured
// caller could request.
const maxSeedBeams = 8

// dedupeSeeds drops duplicate seed sets (keeping first occurrence) and
// truncates to maxSeedBeams. Duplicate lanes would roll out identical
// sequences — pure waste — and the merge step dedupes anyway.
func dedupeSeeds(seeds []recipe.Set) []recipe.Set {
	if len(seeds) == 0 {
		return nil
	}
	out := make([]recipe.Set, 0, len(seeds))
	seen := make(map[recipe.Set]bool, len(seeds))
	for _, st := range seeds {
		if seen[st] {
			continue
		}
		seen[st] = true
		out = append(out, st)
		if len(out) == maxSeedBeams {
			break
		}
	}
	return out
}

// BeamSearchSeeded is BeamSearch warm-started from retrieved recipe sets:
// each seed rides the stacked kernel passes as a forced-rollout lane next
// to the cold beams (scoring seeds[j] exactly as the model would — the
// lane's accumulated log-probability equals Model.LogProb of that set),
// and the final candidates are the best k of cold ∪ seeds by
// log-probability, deduplicated, ties favoring the cold search. Seeds can
// therefore only improve the result, never perturb it: with no seeds the
// call IS BeamSearch, bit for bit, and the k-th cold candidate is only
// ever displaced by a seed that outscores it.
func (d *Decoder) BeamSearchSeeded(k int, seeds []recipe.Set) []Candidate {
	seeds = dedupeSeeds(seeds)
	if len(seeds) == 0 {
		return d.BeamSearch(k)
	}
	if k < 1 {
		k = 1
	}
	coreMetrics()
	sessionStart := time.Now()
	defer func() {
		beamSessionSecs.Observe(time.Since(sessionStart).Seconds())
		beamSessions.Inc()
	}()
	n := d.m.Cfg.NumRecipes
	S := len(seeds)
	s := d.m.getSession(k + S)
	defer d.m.putSession(s)

	// Seed lanes keep authoritative state outside the session's beam
	// arrays (which the cold search overwrites each step) and pin the top
	// cache slots, which forkSlotsReserve keeps away from the cold forks.
	seedScore := make([]float64, S)
	seedLast := make([]int, S)
	seedSeq := make([][]int, S)
	seedSlots := make([]int, S)
	for j := range seedSlots {
		seedSlots[j] = 2*s.capB - 1 - j
		seedSeq[j] = make([]int, n)
	}

	b := 1
	s.slot[0] = 0
	s.score[0] = 0
	for t := 0; t < n; t++ {
		// Stage seed lanes after the b cold beams and advance all b+S
		// sequences in one stacked pass.
		for j := 0; j < S; j++ {
			s.lastBit[b+j] = seedLast[j]
			s.slot[b+j] = seedSlots[j]
		}
		d.stepFast(s, b+S, t)
		for j := 0; j < S; j++ {
			z := s.z[b+j]
			bit := 0
			if seeds[j][t] {
				bit = 1
				seedScore[j] += logSigmoid(z)
			} else {
				seedScore[j] += logSigmoid(-z)
			}
			seedSeq[j][t] = bit
			seedLast[j] = bit
		}
		// The cold beams proceed exactly as in BeamSearch — identical
		// candidate order, stable sort, parent-pointer history.
		nc := 0
		for i := 0; i < b; i++ {
			z := s.z[i]
			s.cand[nc] = fastCand{score: s.score[i] + logSigmoid(z), parent: i, bit: 1}
			s.cand[nc+1] = fastCand{score: s.score[i] + logSigmoid(-z), parent: i, bit: 0}
			nc += 2
		}
		cands := s.cand[:nc]
		sortCandsStable(cands)
		nb := k
		if nc < nb {
			nb = nc
		}
		for i := 0; i < nb; i++ {
			s.histParent[t*s.capB+i] = cands[i].parent
			s.histBits[t*s.capB+i] = cands[i].bit
			s.newScore[i] = cands[i].score
			s.newLastBit[i] = cands[i].bit
		}
		if t < n-1 {
			d.forkSlotsReserve(s, b, nb, t, seedSlots)
		}
		copy(s.score[:nb], s.newScore[:nb])
		copy(s.lastBit[:nb], s.newLastBit[:nb])
		b = nb
	}

	// Materialize cold candidates (the BeamSearch backtrack), append the
	// seed rollouts, and keep the best k distinct sets. The stable sort
	// breaks exact ties toward the cold search, so a seed that merely
	// equals a cold candidate changes nothing.
	all := make([]Candidate, 0, b+S)
	for i := 0; i < b; i++ {
		seq := make([]int, n)
		bi := i
		for t := n - 1; t >= 0; t-- {
			seq[t] = s.histBits[t*s.capB+bi]
			bi = s.histParent[t*s.capB+bi]
		}
		set, err := recipe.FromBits(padBits(seq, recipe.N))
		if err != nil {
			continue
		}
		all = append(all, Candidate{Set: set, LogProb: s.score[i], Sequence: seq})
	}
	for j := 0; j < S; j++ {
		set, err := recipe.FromBits(padBits(seedSeq[j], recipe.N))
		if err != nil {
			continue
		}
		all = append(all, Candidate{Set: set, LogProb: seedScore[j], Sequence: seedSeq[j]})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].LogProb > all[j].LogProb })
	out := make([]Candidate, 0, k)
	dup := make(map[recipe.Set]bool, k)
	for _, c := range all {
		if dup[c.Set] {
			continue
		}
		dup[c.Set] = true
		out = append(out, c)
		if len(out) == k {
			break
		}
	}
	return out
}

// Sample draws one sequence from the policy at temperature tau, advancing a
// single pooled fast-path session. Consumes the same rng stream as
// SampleNaive.
func (d *Decoder) Sample(tau float64, rng *rand.Rand) Candidate {
	if tau <= 0 {
		tau = 1e-6
	}
	n := d.m.Cfg.NumRecipes
	s := d.m.getSession(1)
	defer d.m.putSession(s)
	s.slot[0] = 0
	seq := make([]int, 0, n)
	logp := 0.0
	for t := 0; t < n; t++ {
		if t > 0 {
			s.lastBit[0] = seq[t-1]
		}
		d.stepFast(s, 1, t)
		z := s.z[0]
		bit := 0
		if rng.Float64() < sigmoid(z/tau) {
			bit = 1
		}
		seq = append(seq, bit)
		if bit == 1 {
			logp += logSigmoid(z)
		} else {
			logp += logSigmoid(-z)
		}
	}
	set, err := recipe.FromBits(padBits(seq, recipe.N))
	if err != nil {
		panic(fmt.Sprintf("core: sampled sequence invalid: %v", err))
	}
	return Candidate{Set: set, LogProb: logp, Sequence: seq}
}

// Greedy returns the argmax decision sequence in one cached session — n
// incremental steps instead of the n² full passes of repeated StepProb.
func (d *Decoder) Greedy() []int {
	n := d.m.Cfg.NumRecipes
	s := d.m.getSession(1)
	defer d.m.putSession(s)
	s.slot[0] = 0
	seq := make([]int, 0, n)
	for t := 0; t < n; t++ {
		if t > 0 {
			s.lastBit[0] = seq[t-1]
		}
		d.stepFast(s, 1, t)
		bit := 0
		if sigmoid(s.z[0]) >= 0.5 {
			bit = 1
		}
		seq = append(seq, bit)
	}
	return seq
}

// StepProb returns P(r_t = 1 | prefix, I) by replaying the prefix through a
// fresh fast-path session.
func (d *Decoder) StepProb(prefix []int) float64 {
	s := d.m.getSession(1)
	defer d.m.putSession(s)
	s.slot[0] = 0
	for t := 0; t <= len(prefix); t++ {
		if t > 0 {
			s.lastBit[0] = prefix[t-1]
		}
		d.stepFast(s, 1, t)
	}
	return sigmoid(s.z[0])
}

// BeamSearchBatch fans beam search for many designs across a bounded worker
// pool — the zero-shot evaluation shape, where every held-out design is
// scored independently under one trained policy. Results are returned in
// input order. Queries are drained from a channel by a fixed pool of
// NumCPU workers, so a large sweep starts len(ivs) tasks but only ever
// NumCPU goroutines. Safe under the race detector: each worker builds its
// own Decoder and the model parameters are only read.
func (m *Model) BeamSearchBatch(ivs [][]float64, k int) [][]Candidate {
	out := make([][]Candidate, len(ivs))
	workers := runtime.NumCPU()
	if workers > len(ivs) {
		workers = len(ivs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = m.NewDecoder(ivs[i]).BeamSearch(k)
			}
		}()
	}
	for i := range ivs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
