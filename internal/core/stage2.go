package core

import (
	"encoding/binary"
	"fmt"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// Stage 2 — RID-pair generation (§3.2, §4, §5). The job is a mapping
// schema in the sense of Afrati et al.: one mapper projects each record
// (RID + join-attribute token ranks), computes its prefix under the
// global token order, and replicates the projection to the reduce
// groups its key scheme names; one reducer (stage2_reduce.go) feeds each
// group's stream, in key order, to a kernel (BK, PK or FVT;
// stage2_kernels.go) and emits (RID, RID, sim) triples.
//
// Every stream element has a role. Build items are buffered or indexed;
// probe items are joined against the build side as they stream. An R-S
// join sends R as build and S as probe. A self-join sends every record
// once, as build, and the kernel also joins the build side with itself
// under the RID-order guard. Rounds split a group's stream into
// independent joins, each with a fresh build side.
//
// Key layouts, all in one table (integers big-endian; role 0 = build,
// 1 = probe). Partitioning and grouping use the prefix left of "|";
// sorting uses the full key.
//
//	scheme          self                                  R-S
//	plain BK/FVT    [group u32][cell u8] |                [group u32][cell u8] | [role u8]
//	plain PK        [group u32][cell u8] | [len u32]      [group u32][cell u8] | [class u32][role u8]
//	length-routed   [group u32][bucket u32] | [role u8]   [group u32][bucket u32] | [role u8]
//	map-blocked     [group u32] | [round u32][role u8][block u32]
//	                                                      [group u32] | [round u32][role u8]
//	reduce-blocked  [group u32] | [block u32]             [group u32] | [role u8][block u32]
//
//   - plain (§3.2): group is the prefix token's rank, or its round-robin
//     group. The cell byte is present only with hot-token splitting
//     (Config.SplitK ≥ 2, stage2_split.go). PK's length orders a group
//     for the PPJoin+ index's length eviction; its R-S class (R →
//     lengthLowerBound(l), S → l) makes every joinable R projection
//     arrive before the S projection that probes it (§4, Figure 6).
//   - length-routed (§5: the length filter "as a secondary
//     record-routing criterion"; BK): lengths coarsen into buckets of
//     Config.LengthBucket tokens. A self-join projection builds in its
//     home bucket and probes every lower bucket down to that of its
//     length lower bound, so every admissible pair meets once, in the
//     lower of its two home buckets. An R projection builds in its home
//     bucket; an S projection probes every bucket its length window
//     covers. Reducers buffer one bucket, not the whole token group.
//   - map-blocked (§5, Figure 7(a); BK): a group's records split into
//     NumBlocks blocks by RID. Block b builds in round b; in a self-join
//     it also probes every earlier round (b+1 copies), in an R-S join S
//     probes every round. The trailing self block orders a round's
//     probes.
//   - reduce-blocked (§5, Figure 7(b); BK): each projection is sent
//     once. The reducer keeps the first build block resident, spills the
//     later blocks (and R-S's S side) to local disk, and replays them
//     round by round. Only R is blocked in an R-S join.

const (
	roleBuild = 0
	roleProbe = 1
)

const (
	plainKeys = iota
	lengthKeys
	mapBlockKeys
	reduceBlockKeys
)

var schemeNames = [...]string{"plain", "length-routed", "map-blocked", "reduce-blocked"}

// keyScheme is the Stage 2 mapping schema of one job: which keys a
// projection is replicated under, and how the reducer reads them back.
type keyScheme struct {
	cfg    *Config
	kind   int
	self   bool
	pk     bool // plain keys carry PK's length or class
	split  bool // plain keys carry the hot-token cell byte
	width  int  // length-bucket width
	blocks int
}

func newKeyScheme(cfg *Config, self bool) keyScheme {
	ks := keyScheme{cfg: cfg, self: self, pk: cfg.Kernel == PK, split: cfg.SplitK >= 2,
		width: cfg.LengthBucket, blocks: cfg.NumBlocks}
	if ks.width <= 0 {
		ks.width = 2
	}
	switch {
	case cfg.BlockMode == MapBlocks:
		ks.kind = mapBlockKeys
	case cfg.BlockMode == ReduceBlocks:
		ks.kind = reduceBlockKeys
	case cfg.LengthRouting:
		ks.kind = lengthKeys
	}
	return ks
}

// groupLen is the key prefix that partitions and groups.
func (ks keyScheme) groupLen() int {
	switch {
	case ks.kind == lengthKeys:
		return 8
	case ks.split:
		return 5
	}
	return 4
}

// keyLen is the length of every key the scheme emits.
func (ks keyScheme) keyLen() int {
	switch {
	case ks.kind == lengthKeys:
		return 9
	case ks.kind == mapBlockKeys && ks.self:
		return 13
	case ks.kind == reduceBlockKeys && ks.self:
		return 8
	case ks.kind != plainKeys:
		return 9
	}
	n := ks.groupLen()
	if ks.pk {
		n += 4
	}
	if !ks.self {
		n++
	}
	return n
}

// emitKeys passes emit each key a projection (RID rid, length l, role)
// takes in one (group, cell) of its prefix. The keys share buf's
// storage, so emit must copy what it keeps.
func (ks keyScheme) emitKeys(buf []byte, g uint32, cell uint8, rid uint64, l int, role byte, emit func([]byte) error) error {
	k := keys.AppendUint32(buf[:0], g)
	switch ks.kind {
	case lengthKeys, mapBlockKeys:
		// A window of secondary values (length buckets or rounds) with
		// the build copy at the projection's home value.
		var home, lo, hi uint32
		if ks.kind == lengthKeys {
			lb, ub := ks.cfg.Fn.LengthBounds(l, ks.cfg.Threshold)
			home, lo, hi = uint32(l/ks.width), uint32(lb/ks.width), uint32(ub/ks.width)
		} else {
			home, lo, hi = uint32(rid%uint64(ks.blocks)), 0, uint32(ks.blocks-1)
		}
		switch {
		case ks.self:
			hi = home
		case role == roleBuild:
			lo, hi = home, home
		}
		for v := lo; v <= hi; v++ {
			r := role
			if v != home {
				r = roleProbe
			}
			vk := append(keys.AppendUint32(k, v), r)
			if ks.kind == mapBlockKeys && ks.self {
				vk = keys.AppendUint32(vk, home)
			}
			if err := emit(vk); err != nil {
				return err
			}
		}
		return nil
	case reduceBlockKeys:
		b := uint32(rid % uint64(ks.blocks))
		if ks.self {
			return emit(keys.AppendUint32(k, b))
		}
		if role == roleProbe {
			b = 0 // S is one unblocked partition
		}
		return emit(keys.AppendUint32(append(k, role), b))
	}
	if ks.split {
		k = append(k, cell)
	}
	if ks.pk {
		class := uint32(l)
		if !ks.self && role == roleBuild {
			lo, _ := ks.cfg.Fn.LengthBounds(l, ks.cfg.Threshold)
			class = uint32(lo)
		}
		k = keys.AppendUint32(k, class)
	}
	if !ks.self {
		k = append(k, role)
	}
	return emit(k)
}

// decode reads a reduce-side key back into the element's round, its
// role, and (reduce-blocked keys) its block.
func (ks keyScheme) decode(key []byte) (round uint32, role byte, block uint32, err error) {
	if len(key) != ks.keyLen() {
		return 0, 0, 0, &malformedKeyError{scheme: ks.String(), n: len(key)}
	}
	switch {
	case ks.kind == plainKeys && !ks.self:
		role = key[len(key)-1]
	case ks.kind == lengthKeys:
		role = key[8]
	case ks.kind == mapBlockKeys:
		round, role = binary.BigEndian.Uint32(key[4:]), key[8]
	case ks.kind == reduceBlockKeys && ks.self:
		block = binary.BigEndian.Uint32(key[4:])
	case ks.kind == reduceBlockKeys:
		role, block = key[4], binary.BigEndian.Uint32(key[5:])
	}
	return round, role, block, nil
}

func (ks keyScheme) String() string {
	if ks.self {
		return schemeNames[ks.kind]
	}
	return schemeNames[ks.kind] + " R-S"
}

// malformedKeyError reports a Stage 2 key whose length does not fit the
// job's key scheme.
type malformedKeyError struct {
	scheme string
	n      int
}

func (e *malformedKeyError) Error() string {
	return fmt.Sprintf("core: malformed %s key of %d bytes", e.scheme, e.n)
}

// routing maps prefix token ranks to Stage 2 reduce groups (§3.2): the
// rank itself for individual-token routing, or round-robin over the
// group count for grouped routing (round-robin by frequency rank
// balances the sum of token frequencies across groups). The Stage 2
// mapper, the FVT owner hook and the §2.2 carry-records mapper share it.
type routing struct {
	cfg       *Config
	order     *tokenize.Order
	numGroups uint32
	// hotMin is the lowest token rank treated as hot by hot-token
	// splitting (ranks are frequency-ascending, so the hottest tokens
	// occupy the top SplitHotCount ranks).
	hotMin int
	seen   map[uint64]struct{}
}

// newRouting builds the mapping for an order of n tokens. Grouped
// routing with no explicit group count uses one group per token.
func newRouting(cfg *Config, n int) *routing {
	groups := n
	if cfg.NumGroups > 0 {
		groups = cfg.NumGroups
	}
	return &routing{cfg: cfg, numGroups: uint32(max(groups, 1)),
		hotMin: n - cfg.SplitHotCount, seen: make(map[uint64]struct{})}
}

// loadRouting reads the Stage 1 token order from its side file and
// returns the routing plus the bytes charged for it. The token list is
// assumed to fit in task memory (§3.2); the budget check keeps the
// assumption honest.
func loadRouting(ctx *mapreduce.Context, cfg *Config, tokenFile string) (*routing, int64, error) {
	data, err := ctx.SideFile(tokenFile)
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Memory.Alloc(int64(len(data))); err != nil {
		return nil, 0, err
	}
	order := loadTokenOrder(data)
	rt := newRouting(cfg, order.Len())
	rt.order = order
	return rt, int64(len(data)), nil
}

func (rt *routing) group(rank uint32) uint32 {
	if rt.cfg.Routing == GroupedTokens {
		return rank % rt.numGroups
	}
	return rank
}

// project parses a record line into its RID and its join-attribute
// token ranks, rarest first. Tokens absent from the global order are
// discarded — relevant for the S relation, whose unknown tokens cannot
// produce candidates against R (§4 Stage 1).
func (rt *routing) project(line []byte) (uint64, []uint32, error) {
	rec, err := records.ParseLine(string(line))
	if err != nil {
		return 0, nil, err
	}
	_, ranks := rt.order.SortByRank(rt.cfg.Tokenizer.Tokenize(rec.JoinAttr(rt.cfg.JoinFields...)))
	return rec.RID, ranks, nil
}

// route calls fn once per distinct (group, cell) a projection's prefix
// tokens route to. Grouped routing can map several prefix tokens to one
// group; one copy per (group, cell) suffices (the point of grouping:
// fewer replicas, §3.2). The cell is 0 unless split salts a hot token.
func (rt *routing) route(ctx *mapreduce.Context, rid uint64, ranks []uint32, split bool, fn func(g uint32, cell uint8) error) error {
	clear(rt.seen)
	visit := func(g uint32, cell uint8) error {
		ck := uint64(g)<<8 | uint64(cell)
		if _, dup := rt.seen[ck]; dup {
			return nil
		}
		rt.seen[ck] = struct{}{}
		return fn(g, cell)
	}
	k := rt.cfg.SplitK
	for _, rank := range ranks[:rt.cfg.Fn.PrefixLength(len(ranks), rt.cfg.Threshold)] {
		g := rt.group(rank)
		if !split || int(rank) < rt.hotMin {
			if err := visit(g, 0); err != nil {
				return err
			}
			continue
		}
		// Hot token: replicate to the k triangle cells of this record's
		// salt class. Any two records meet in at least one cell of this
		// group (exactly one when their salts differ), so no τ-pair is
		// lost; same-salt pairs surface in up to k cells and the
		// merge-side dedup post-pass drops the copies.
		ctx.Count("stage2.split_hot_tokens", 1)
		s := splitSalt(rid, k)
		for j := 0; j < k; j++ {
			if err := visit(g, splitCell(s, j, k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// stage2Mapper projects records and replicates them under the job's key
// scheme.
type stage2Mapper struct {
	cfg       *Config
	tokenFile string
	// inputR names the R input of an R-S join: its records build, the
	// other input's probe. Self-join records all build.
	inputR string
	keys   keyScheme

	route          *routing
	keyBuf, valBuf []byte
}

// NewTaskInstance gives each map task its own mapper (the token order
// and reused buffers are per-task state).
func (m *stage2Mapper) NewTaskInstance() any {
	return &stage2Mapper{cfg: m.cfg, tokenFile: m.tokenFile, inputR: m.inputR, keys: m.keys}
}

func (m *stage2Mapper) Setup(ctx *mapreduce.Context) (err error) {
	m.route, _, err = loadRouting(ctx, m.cfg, m.tokenFile)
	return err
}

func (m *stage2Mapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, ranks, err := m.route.project(value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		ctx.Count("stage2.empty_projections", 1)
		return nil
	}
	role := byte(roleBuild)
	if !m.keys.self && ctx.InputFile != m.inputR {
		role = roleProbe
	}
	m.valBuf = records.Projection{RID: rid, Ranks: ranks}.AppendBinary(m.valBuf[:0])
	emit := func(k []byte) error {
		m.keyBuf = k
		if err := out.Emit(k, m.valBuf); err != nil {
			return err
		}
		ctx.Count("stage2.replicas", 1)
		return nil
	}
	return m.route.route(ctx, rid, ranks, m.keys.split, func(g uint32, cell uint8) error {
		return m.keys.emitKeys(m.keyBuf, g, cell, rid, len(ranks), role, emit)
	})
}

// runStage2 runs the kernel job over inputs — one file for a self-join,
// R then S for an R-S join — and returns the RID-pair output prefix.
func runStage2(cfg *Config, inputs []string, tokenFile, work string) (string, []*mapreduce.Metrics, error) {
	ps := progSpec{Kind: "s2", TokenFile: tokenFile}
	side := "self"
	if len(inputs) > 1 {
		ps.InputR, ps.RS, side = inputs[0], true, "rs"
	}
	out, kernelOut := stage2Outputs(cfg, work)
	job, err := coreJob(cfg, ps)
	if err != nil {
		return "", nil, err
	}
	// Job names are stable identifiers: chaos schedules hash them.
	switch {
	case cfg.BlockMode != NoBlocks:
		job.Name = fmt.Sprintf("s2-bk-%s-%s", side, cfg.BlockMode)
	case cfg.LengthRouting:
		job.Name = fmt.Sprintf("s2-bk-%s-lengthrouted", side)
	default:
		job.Name = fmt.Sprintf("s2-%s-%s", cfg.Kernel, side)
	}
	job.Inputs = inputs
	job.InputFormat = mapreduce.Text
	job.Output = kernelOut
	job.SideFiles = []string{tokenFile}
	m, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return runSplitDedup(cfg, kernelOut, out, []*mapreduce.Metrics{m})
}
