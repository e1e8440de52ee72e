package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"probdedup"
	"probdedup/internal/dataset"
	"probdedup/internal/shard"
)

// op is one operation of a workload's stream: an insertion (x set) or
// the removal of a current resident. entity is the planted identity
// the quality metric scores against; conn is the sender connection
// that carries the operation. A connection carries the blocks of one
// shard: a removal can never overtake its insertion, and a full queue
// on one shard pauses only its own sender — pdedupd applies a body in
// order until the first failure, so with keys split any other way a
// 429 on one shard's item holds back the other shard's items behind it
// and closed-loop throughput flips between two states 13 % apart.
type op struct {
	remove bool
	id     string
	x      *probdedup.XTuple
	entity int
	conn   int
}

// corpus is everything one run feeds the system under test, generated
// from the seed before any timer starts.
type corpus struct {
	schema  []string
	preload []op
	open    []op
	closed  []op
	// barrier returns the n-th barrier's operations: per shard one pair
	// of identical tuples in a block of their own. Their delta is the
	// last thing that shard emits for everything admitted before, so
	// reading it proves "applied and delivered" without polling.
	barrier func(n int) []op
}

// all lists every operation of the run in admission order per
// connection (barriers excluded).
func (c *corpus) all() []op {
	out := make([]op, 0, len(c.preload)+len(c.open)+len(c.closed))
	out = append(out, c.preload...)
	out = append(out, c.open...)
	return append(out, c.closed...)
}

// residentsAfter replays ops and returns the surviving insertions in
// arrival order.
func residentsAfter(ops []op) []op {
	removed := map[string]bool{}
	for _, o := range ops {
		if o.remove {
			removed[o.id] = true
		}
	}
	var out []op
	for _, o := range ops {
		if !o.remove && !removed[o.id] {
			out = append(out, o)
		}
	}
	return out
}

// truthPairs returns the planted duplicate pairs among the residents:
// every pair of tuples rendering the same entity.
func truthPairs(residents []op) probdedup.PairSet {
	byEntity := map[int][]string{}
	for _, o := range residents {
		byEntity[o.entity] = append(byEntity[o.entity], o.id)
	}
	truth := probdedup.PairSet{}
	for _, ids := range byEntity {
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				truth.Add(ids[i], ids[j])
			}
		}
	}
	return truth
}

// member is a resident as the generator remembers it: the true values
// a planted duplicate copies.
type member struct {
	id, name, job string
	entity        int
}

type block struct {
	key     string
	conn    int
	members []member
}

// daemonGen builds the served workloads' corpora (schema name, job,
// block): random names, a fixed job vocabulary large enough that the
// pre-filter rejects non-duplicates, planted duplicates that copy a
// current member of the same block with one edit, and two-alternative
// x-tuples whose second alternative (probability 0.03–0.20) is
// unrelated, which pushes some true pairs from M down to P.
type daemonGen struct {
	s        spec
	rng      *rand.Rand
	jobs     []string
	blocks   []*block
	classEnd []int // blocks[classStart:classEnd[i]] belong to class i
	nextID   int
	nextEnt  int
	// Evenly spread decisions (see deck): class of the next arrival (one
	// deck per class but the last), block within the class, duplicate,
	// two alternatives, removal.
	classDeck []*deck
	blockRota []*rota
	dup, two  *deck
	rem       *deck
	// resident and blockOf let a removal pick any current resident.
	resident []string
	blockOf  map[string]*block
}

// deck answers a yes/no question with a fixed share of yeses: every
// hundred draws hold exactly share×100 of them (fractions carried
// over), in seeded random order. Seeds then move which arrivals are
// duplicates, two-alternative or removals, never how many — the amount
// of work a run does must not depend on its seed.
type deck struct {
	rng   *rand.Rand
	share float64
	carry float64
	cards []bool
}

const deckSize = 100

func (d *deck) draw() bool {
	if len(d.cards) == 0 {
		d.carry += d.share * deckSize
		yes := int(d.carry)
		d.carry -= float64(yes)
		d.cards = make([]bool, deckSize)
		for i := 0; i < yes && i < deckSize; i++ {
			d.cards[i] = true
		}
		d.rng.Shuffle(deckSize, func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return c
}

// rota hands out the numbers 0..n-1 in seeded random order, reshuffling
// when all have been dealt: every block of a class receives the same
// number of arrivals (±1) whatever the seed.
type rota struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (r *rota) next() int {
	if len(r.left) == 0 {
		r.left = r.rng.Perm(r.n)
	}
	i := r.left[len(r.left)-1]
	r.left = r.left[:len(r.left)-1]
	return i
}

func letters(rng *rand.Rand, lo, hi int) string {
	n := lo + rng.Intn(hi-lo+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// generateDaemon builds the corpus of one served workload. route maps a
// block key to its shard (Router.ShardOf on a probe tuple); the
// generator needs it to pin hot blocks to one shard and barriers to
// each.
func generateDaemon(s spec, seed int64, shards int, route func(key string) int) *corpus {
	g := &daemonGen{
		s:       s,
		rng:     rand.New(rand.NewSource(seed)),
		blockOf: map[string]*block{},
	}
	g.dup = &deck{rng: g.rng, share: s.dupShare}
	g.two = &deck{rng: g.rng, share: s.twoAltShare}
	g.rem = &deck{rng: g.rng, share: s.removeShare}
	g.jobs = make([]string, 512)
	for i := range g.jobs {
		g.jobs[i] = letters(g.rng, 6, 10)
	}

	// Blocks, class by class. Keys are 8 characters (-key block:8):
	// a class letter and a counter; pinned classes keep only keys that
	// route to shard 0.
	for ci, c := range s.classes {
		n := int(float64(s.preload)*c.preloadShare/float64(c.size) + 0.5)
		if n < 1 {
			n = 1
		}
		for k, made := 0, 0; made < n; k++ {
			key := fmt.Sprintf("%c%07d", 'a'+ci, k)
			sh := route(key)
			if c.pinShard0 && sh != 0 {
				continue
			}
			g.blocks = append(g.blocks, &block{key: key, conn: sh % senders})
			made++
		}
		g.classEnd = append(g.classEnd, len(g.blocks))
		g.blockRota = append(g.blockRota, &rota{rng: g.rng, n: n})
	}
	// Class ci is drawn with its share of what the classes before it
	// left over.
	rest := 1.0
	for _, c := range s.classes {
		g.classDeck = append(g.classDeck, &deck{rng: g.rng, share: c.arrivalShare / rest})
		rest -= c.arrivalShare
	}

	c := &corpus{schema: daemonSchemaNames()}

	// Preload: fill every block to its class size, then shuffle so
	// arrival order carries no block structure.
	start := 0
	for ci, cl := range s.classes {
		for _, b := range g.blocks[start:g.classEnd[ci]] {
			for i := 0; i < cl.size; i++ {
				c.preload = append(c.preload, g.insert(b))
			}
		}
		start = g.classEnd[ci]
	}
	g.rng.Shuffle(len(c.preload), func(i, j int) { c.preload[i], c.preload[j] = c.preload[j], c.preload[i] })

	c.open = g.stream(s.openOps)
	c.closed = g.stream(s.closedOps)

	c.barrier = func(n int) []op {
		var out []op
		for sh := 0; sh < shards; sh++ {
			key := ""
			for k := 0; ; k++ {
				key = fmt.Sprintf("z%03d%04d", n, k)
				if route(key) == sh {
					break
				}
			}
			for _, suffix := range []string{"a", "b"} {
				id := fmt.Sprintf("barrier-%d-%d-%s", n, sh, suffix)
				out = append(out, op{
					id:     id,
					x:      probdedup.NewXTuple(id, probdedup.NewAlt(1, "barrier", "barrier", key)),
					entity: -(n*shards + sh + 1),
					conn:   0,
				})
			}
		}
		return out
	}
	return c
}

// daemonCorpus generates a served workload's corpus, routing block keys
// with an in-process Router of the daemon's own configuration.
func daemonCorpus(s spec, seed int64) (*corpus, error) {
	opts, err := daemonOptions()
	if err != nil {
		return nil, err
	}
	probe, err := shard.Open(shard.Config{Shards: daemonShards, Schema: daemonSchemaNames(), Opts: opts})
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	return generateDaemon(s, seed, daemonShards, func(key string) int {
		return probe.ShardOf(probdedup.NewXTuple("probe", probdedup.NewAlt(1, "", "", key)))
	}), nil
}

// pickBlock draws the block of the next arrival: the class by its
// share, then the class's blocks in rotation.
func (g *daemonGen) pickBlock() *block {
	start := 0
	for ci := range g.s.classes {
		if ci == len(g.s.classes)-1 || g.classDeck[ci].draw() {
			return g.blocks[start+g.blockRota[ci].next()]
		}
		start = g.classEnd[ci]
	}
	return g.blocks[0]
}

// insert makes the next arrival of block b: with probability dupShare
// a duplicate of a current member (one edit on the name), otherwise a
// new entity.
func (g *daemonGen) insert(b *block) op {
	id := fmt.Sprintf("t%07d", g.nextID)
	g.nextID++
	m := member{id: id}
	if len(b.members) > 0 && g.dup.draw() {
		orig := b.members[g.rng.Intn(len(b.members))]
		m.name, m.job, m.entity = dataset.Typo(g.rng, orig.name), orig.job, orig.entity
	} else {
		m.name, m.job, m.entity = letters(g.rng, 10, 14), g.jobs[g.rng.Intn(len(g.jobs))], g.nextEnt
		g.nextEnt++
	}
	alts := []probdedup.Alt{probdedup.NewAlt(1, m.name, m.job, b.key)}
	if g.two.draw() {
		k := 80 + g.rng.Intn(18)
		alts[0].P = float64(k) / 100
		alts = append(alts, probdedup.NewAlt(float64(100-k)/100,
			letters(g.rng, 10, 14), g.jobs[g.rng.Intn(len(g.jobs))], b.key))
	}
	b.members = append(b.members, m)
	g.blockOf[id] = b
	g.resident = append(g.resident, id)
	return op{id: id, x: probdedup.NewXTuple(id, alts...), entity: m.entity, conn: b.conn}
}

// remove retracts a uniformly drawn current resident.
func (g *daemonGen) remove() op {
	i := g.rng.Intn(len(g.resident))
	id := g.resident[i]
	last := len(g.resident) - 1
	g.resident[i] = g.resident[last]
	g.resident = g.resident[:last]
	b := g.blockOf[id]
	delete(g.blockOf, id)
	for k, m := range b.members {
		if m.id == id {
			b.members = append(b.members[:k], b.members[k+1:]...)
			break
		}
	}
	return op{remove: true, id: id, conn: b.conn}
}

func (g *daemonGen) stream(n int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		if g.s.removeShare > 0 && len(g.resident) > 0 && g.rem.draw() {
			out = append(out, g.remove())
			continue
		}
		out = append(out, g.insert(g.pickBlock()))
	}
	return out
}

// body is one pre-rendered NDJSON request: offs[i] is where item i
// starts, so a 429 that reports item i resumes from data[offs[i]:].
type body struct {
	data []byte
	offs []int
	ops  []op
}

// renderBodies packs ops, in order, into NDJSON bodies of at most per
// items each.
func renderBodies(ops []op, per int) ([]body, error) {
	var out []body
	for len(ops) > 0 {
		n := per
		if n > len(ops) {
			n = len(ops)
		}
		var buf bytes.Buffer
		b := body{ops: ops[:n]}
		for _, o := range ops[:n] {
			b.offs = append(b.offs, buf.Len())
			if o.remove {
				fmt.Fprintf(&buf, "{\"remove\":%q}\n", o.id)
				continue
			}
			if err := probdedup.EncodeXTupleJSON(&buf, o.x); err != nil {
				return nil, err
			}
		}
		b.data = buf.Bytes()
		out = append(out, b)
		ops = ops[n:]
	}
	return out, nil
}

// splitByConn partitions ops by sender connection, keeping order.
func splitByConn(ops []op) [senders][]op {
	var out [senders][]op
	for _, o := range ops {
		out[o.conn] = append(out[o.conn], o)
	}
	return out
}
