package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// stage2Reducer decodes a reduce group's stream into (round, role) and
// feeds it to a fresh kernel per round. It owns what every kernel
// shares: the memory accounting, pair normalization, and the §5
// reduce-based spill and replay.
type stage2Reducer struct {
	cfg       *Config
	tokenFile string
	keys      keyScheme
	// route is the mapper's token→group mapping, for FVT's owner hook.
	route *routing
}

// NewTaskInstance gives each reduce task its own routing.
func (r *stage2Reducer) NewTaskInstance() any {
	return &stage2Reducer{cfg: r.cfg, tokenFile: r.tokenFile, keys: r.keys}
}

func (r *stage2Reducer) Setup(ctx *mapreduce.Context) error {
	if r.cfg.Kernel != FVT {
		return nil
	}
	r.route = newRouting(r.cfg, 0)
	if r.cfg.Routing != GroupedTokens || r.cfg.NumGroups > 0 {
		return nil
	}
	// Grouped routing with no explicit group count has one group per
	// token: the owner hook needs the token count.
	rt, size, err := loadRouting(ctx, r.cfg, r.tokenFile)
	if err != nil {
		return err
	}
	ctx.Memory.Free(size) // only the count is retained
	rt.order = nil
	r.route = rt
	return nil
}

// sBlock is the spill id of an R-S join's S partition, above any R
// block.
const sBlock = ^uint32(0)

func (r *stage2Reducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	if _, _, _, err := r.keys.decode(key); err != nil {
		return err
	}
	g := &s2Group{r: r, ctx: ctx, out: out}
	g.emitFn = g.emit // one method value per group, not per item
	if r.keys.kind == plainKeys && r.keys.self {
		g.builds = values.Len() // one round in which every element builds
	}
	defer func() { ctx.Memory.Free(g.held) }()
	if r.cfg.Kernel == FVT {
		// The group owns exactly the tokens the mapper routes to it.
		gid := binary.BigEndian.Uint32(key)
		g.owner = func(w uint32) bool { return r.route.group(w) == gid }
	}
	var sp *spill
	if r.keys.kind == reduceBlockKeys {
		var err error
		if sp, err = newSpill(); err != nil {
			return err
		}
		defer sp.close()
	}
	cur, first := int64(-1), int64(-1)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		round, role, block, err := r.keys.decode(values.Key())
		if err != nil {
			return err
		}
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		if int64(round) != cur {
			if err := g.next(); err != nil {
				return err
			}
			cur = int64(round)
		}
		if sp != nil {
			// Reduce-based blocks: the first build block stays resident;
			// later blocks and the S partition stream against it and
			// spill for the replay rounds.
			if role == roleProbe {
				block = sBlock
			} else if first < 0 {
				first = int64(block)
			}
			if int64(block) != first {
				if err := sp.add(block, v); err != nil {
					return err
				}
				if role == roleBuild && !r.keys.self {
					continue // later R blocks only replay
				}
				role = roleProbe
			}
		}
		if err := g.feed(role, ppjoin.Item{RID: p.RID, Ranks: p.Ranks}); err != nil {
			return err
		}
	}
	if sp != nil {
		if err := g.replay(sp); err != nil {
			return err
		}
		ctx.Count("stage2.spill_bytes", sp.writes)
	}
	return g.end()
}

// s2Group is one reduce group in flight: the current round's kernel,
// the memory charged for it, and the first emit error.
type s2Group struct {
	r       *stage2Reducer
	ctx     *mapreduce.Context
	out     mapreduce.Emitter
	owner   func(uint32) bool
	emitFn  func(records.RIDPair)
	k       kernel
	held    int64
	builds  int
	flushed bool
	err     error
	kb, vb  []byte
}

// emit writes one kernel result in the Stage 2 output format: key =
// [A u64][B u64], value = the RIDPair binary encoding. Self-join pairs
// are normalized to A < B, the convention Stage 3 dedups on; R-S pairs
// stay (R RID, S RID).
func (g *s2Group) emit(p records.RIDPair) {
	if g.r.keys.self && p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	if g.err != nil {
		return
	}
	g.kb = keys.AppendUint64(keys.AppendUint64(g.kb[:0], p.A), p.B)
	g.vb = p.AppendBinary(g.vb[:0])
	g.err = g.out.Emit(g.kb, g.vb)
}

// charge reconciles the task's memory budget with the kernel's
// footprint: growth is charged (and may fail the task), shrinkage
// credited.
func (g *s2Group) charge() error {
	b := g.k.bytes()
	if b > g.held {
		if err := g.ctx.Memory.Alloc(b - g.held); err != nil {
			return err
		}
	} else {
		g.ctx.Memory.Free(g.held - b)
	}
	g.held = b
	return g.err
}

func (g *s2Group) feed(role byte, it ppjoin.Item) error {
	if role == roleBuild {
		g.k.add(it, g.emitFn)
		return g.charge()
	}
	if err := g.flush(); err != nil {
		return err
	}
	g.k.probe(it, g.emitFn)
	return g.charge()
}

// flush closes the round's build side, once.
func (g *s2Group) flush() error {
	if g.flushed {
		return nil
	}
	g.flushed = true
	g.k.flush(g.emitFn)
	return g.charge()
}

// next ends the current round and starts a fresh kernel.
func (g *s2Group) next() error {
	if err := g.end(); err != nil {
		return err
	}
	g.k, g.flushed = newKernel(g.r.cfg, g.r.keys.self, g.owner, g.builds), false
	return g.charge()
}

// end finishes the current round. A self-join round without probes
// still pairs its build side; an R-S one has nothing left to do.
func (g *s2Group) end() error {
	if g.k == nil {
		return nil
	}
	if g.r.keys.self {
		if err := g.flush(); err != nil {
			return err
		}
	}
	g.k.count(g.ctx)
	return g.err
}

// replay runs the reduce-based rounds (Figure 7(b)): each spilled build
// block becomes resident once and is probed by the blocks after it
// (self-join) or by the whole S partition (R-S).
func (g *s2Group) replay(sp *spill) error {
	blocks := sp.blocks()
	for i, b := range blocks {
		if b == sBlock {
			break // sorted: the S partition is last
		}
		if err := g.next(); err != nil {
			return err
		}
		probes := blocks[i+1:]
		if !g.r.keys.self {
			probes = []uint32{sBlock}
		}
		if err := g.feedBlock(sp, b, roleBuild); err != nil {
			return err
		}
		for _, pb := range probes {
			if err := g.feedBlock(sp, pb, roleProbe); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *s2Group) feedBlock(sp *spill, block uint32, role byte) error {
	items, err := sp.load(block)
	if err != nil {
		return err
	}
	for _, it := range items {
		if err := g.feed(role, it); err != nil {
			return err
		}
	}
	return nil
}

// spill is a local-disk block store for reduce-based block processing.
type spill struct {
	dir    string
	files  map[uint32]*os.File
	writes int64
}

func newSpill() (*spill, error) {
	dir, err := os.MkdirTemp("", "fuzzyjoin-spill-")
	if err != nil {
		return nil, err
	}
	return &spill{dir: dir, files: make(map[uint32]*os.File)}, nil
}

func (s *spill) add(block uint32, encoded []byte) error {
	f, ok := s.files[block]
	if !ok {
		var err error
		f, err = os.Create(filepath.Join(s.dir, fmt.Sprintf("block-%d", block)))
		if err != nil {
			return err
		}
		s.files[block] = f
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(encoded)))
	if _, err := f.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := f.Write(encoded)
	s.writes += int64(n + len(encoded))
	return err
}

// load reads back one spilled block as decoded items.
func (s *spill) load(block uint32) ([]ppjoin.Item, error) {
	f, ok := s.files[block]
	if !ok {
		return nil, nil
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var items []ppjoin.Item
	for len(data) > 0 {
		sz, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < sz {
			return nil, fmt.Errorf("core: corrupt spill block %d", block)
		}
		p, err := records.DecodeProjection(data[n : n+int(sz)])
		if err != nil {
			return nil, err
		}
		items = append(items, ppjoin.Item{RID: p.RID, Ranks: p.Ranks})
		data = data[n+int(sz):]
	}
	return items, nil
}

// blocks lists the spilled block ids in ascending order.
func (s *spill) blocks() []uint32 {
	out := make([]uint32, 0, len(s.files))
	for b := range s.files {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

func (s *spill) close() {
	for _, f := range s.files {
		f.Close()
	}
	os.RemoveAll(s.dir)
}
