package ssr

import (
	"math"

	"probdedup/internal/cluster"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// maxDrift is the fraction of residents an incremental BlockingCluster
// may place by nearest-centroid assignment (instead of a full
// re-clustering) before it reseals its epoch in-band; Staleness.Bound
// reports it.
const maxDrift = 0.25

// blockingClusterIndex maintains the BlockingCluster candidate set on
// the bounded-staleness tier (EpochIndex).
//
// UK-means clustering depends globally on the whole relation — the key
// universe, the embedding and the centroids all move with every tuple —
// so exact maintenance would re-cluster from scratch per arrival. The
// epoch scheme bounds that cost: a reseal runs the batch clustering
// (bitwise: same items in insertion order, fresh rng from Seed) and
// freezes its embedding and centroids. Between reseals an arriving
// tuple is embedded in the frozen space and joins the block of its
// nearest centroid — an O(k) decision — and a departing tuple just
// leaves its block. Each such stale placement counts toward drift;
// when drift exceeds maxDrift·residents, the index reseals inside the
// same operation, so the epoch flip reaches consumers as ordinary pair
// deltas (re-blocked pairs net out in the pairNet).
type blockingClusterIndex struct {
	method BlockingCluster

	arrivals []string
	items    map[string]cluster.Item

	epoch     int
	k         int
	emb       *cluster.Embedding
	centroids []float64
	labelOf   map[string]int
	blocks    map[int][]string
	drifted   int

	net pairNet[verify.Pair] // the operation's deltas; re-blocked pairs cancel in it
}

// Incremental implements IncrementalMethod.
func (m BlockingCluster) Incremental() (IncrementalIndex, error) {
	return &blockingClusterIndex{
		method:  m,
		items:   map[string]cluster.Item{},
		labelOf: map[string]int{},
		blocks:  map[int][]string{},
	}, nil
}

func (b *blockingClusterIndex) Len() int { return len(b.arrivals) }

// Epoch implements EpochIndex.
func (b *blockingClusterIndex) Epoch() int { return b.epoch }

// Staleness implements EpochIndex.
func (b *blockingClusterIndex) Staleness() Staleness {
	return Staleness{
		Epoch:     b.epoch,
		Residents: len(b.arrivals),
		Drifted:   b.drifted,
		Bound:     maxDrift,
	}
}

// nearestCentroid picks the closest centroid by squared distance, ties
// to the lowest index — the same rule as the UK-means assignment loop.
func nearestCentroid(centroids []float64, p float64) int {
	best, bestD := 0, math.Inf(1)
	for c, ct := range centroids {
		if d := (p - ct) * (p - ct); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// reseal runs the batch clustering over the residents in insertion
// order and rebuilds the blocks, recording the pair churn as deltas
// (unchanged pairs cancel in the pairNet). It freezes the new
// epoch's embedding and centroids and resets the drift counter.
func (b *blockingClusterIndex) reseal() {
	// Withdraw the old blocks' pairs.
	for c := 0; c < b.k; c++ {
		members := b.blocks[c]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b.net.add(verify.NewPair(members[i], members[j]), true)
			}
		}
	}
	// Re-cluster exactly as the batch Partitions does.
	items := make([]cluster.Item, len(b.arrivals))
	for i, id := range b.arrivals {
		items[i] = b.items[id]
	}
	c := b.method.clusterItems(items)
	b.k = c.K
	b.centroids = c.Centroids
	b.emb = cluster.NewEmbedding(items)
	b.labelOf = make(map[string]int, len(items))
	b.blocks = map[int][]string{}
	for i, a := range c.Assign {
		id := items[i].ID
		for _, other := range b.blocks[a] {
			b.net.add(verify.NewPair(other, id), false)
		}
		b.blocks[a] = append(b.blocks[a], id)
		b.labelOf[id] = a
	}
	b.drifted = 0
	b.epoch++
}

// maybeReseal reseals in-band once the drift bound is crossed.
func (b *blockingClusterIndex) maybeReseal() {
	if float64(b.drifted) > maxDrift*float64(len(b.arrivals)) {
		b.reseal()
	}
}

func (b *blockingClusterIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	it := cluster.Item{ID: x.ID, Keys: b.method.Key.XTupleKeyDist(x, true)}
	b.items[x.ID] = it
	b.arrivals = append(b.arrivals, x.ID)
	if b.emb == nil {
		b.reseal()
	} else {
		c := nearestCentroid(b.centroids, b.emb.Pos(it.Keys))
		for _, other := range b.blocks[c] {
			b.net.add(verify.NewPair(other, x.ID), false)
		}
		b.blocks[c] = append(b.blocks[c], x.ID)
		b.labelOf[x.ID] = c
		b.drifted++
		b.maybeReseal()
	}
	return b.net.flush(samePair, yield)
}

func (b *blockingClusterIndex) Remove(id string, yield func(PairDelta) bool) bool {
	if _, ok := b.items[id]; !ok {
		return true
	}
	delete(b.items, id)
	b.arrivals = removeID(b.arrivals, id)
	c := b.labelOf[id]
	delete(b.labelOf, id)
	b.blocks[c] = removeID(b.blocks[c], id)
	for _, other := range b.blocks[c] {
		b.net.add(verify.NewPair(other, id), true)
	}
	if len(b.arrivals) == 0 {
		// Empty index: clear the epoch state so the next insertion
		// seals a fresh epoch.
		b.k = 0
		b.emb = nil
		b.centroids = nil
		b.blocks = map[int][]string{}
		b.drifted = 0
	} else {
		b.drifted++
		b.maybeReseal()
	}
	return b.net.flush(samePair, yield)
}

// Reseal implements EpochIndex.
func (b *blockingClusterIndex) Reseal(yield func(PairDelta) bool) bool {
	if len(b.arrivals) == 0 {
		return true
	}
	b.reseal()
	return b.net.flush(samePair, yield)
}

// Interface conformance checks.
var (
	_ IncrementalMethod = BlockingCluster{}
	_ EpochIndex        = (*blockingClusterIndex)(nil)
)
