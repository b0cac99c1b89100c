package textmine

import (
	"errors"
	"math"

	"failscope/internal/obs"
	"failscope/internal/par"
	"failscope/internal/xrand"
)

// ErrNoData is returned when clustering is attempted on an empty corpus.
var ErrNoData = errors.New("textmine: no documents to cluster")

// KMeansResult is the outcome of one clustering run.
type KMeansResult struct {
	Assignments []int       // cluster index per document
	Centroids   [][]float64 // dense centroids, unit space
	Inertia     float64     // sum of squared distances to assigned centroid
	Iterations  int
}

// boundEps is the absolute safety margin the distance-bound pruning keeps
// between a bound and the exact distance it compares against. Distances on
// the unit sphere lie in [0, 2] (squared in [0, 4]) and their float64
// rounding error is below 1e-12, so a 1e-6 margin makes every pruning
// decision unambiguous: a centroid is only skipped when it is provably
// farther than the incumbent by more than any possible rounding noise, and
// genuine near-ties fall through to the exact scan. This is what keeps the
// pruned kernel bit-identical to an exhaustive one.
const boundEps = 1e-6

// KMeans clusters unit-normalized sparse vectors into k clusters using
// k-means++ seeding and Lloyd iterations. Because the vectors are unit
// length, squared Euclidean distance is 2 − 2·cosine, so this is spherical
// k-means in effect — the standard choice for TF-IDF ticket text.
//
// The assignment step (the O(n·k·nnz) bulk of the work) and the k-means++
// D² update fan out over parallelism workers. Documents are partitioned
// into fixed par.BlockSize blocks regardless of worker count and the
// per-block inertia partials are merged in block order, so the float
// arithmetic — and therefore every assignment, centroid and the RNG draw
// sequence — is identical at any worker count.
//
// Assignment sweeps use Hamerly-style bounds (see below) to skip full
// centroid scans; whenever a distance is actually evaluated it is the
// exact float expression an exhaustive scan computes, so the result is
// bit-identical to one (TestKMeansPrunedMatchesExact holds the kernel to
// an exhaustive reference). With o set, the seeding and the Lloyd sweeps
// record spans (pool busy time, iteration counts) and convergence metrics;
// observation reads the clock only, never the RNG.
func KMeans(vectors []SparseVector, dim, k, maxIter int, r *xrand.RNG, parallelism int, o *obs.Observer) (*KMeansResult, error) {
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoData
	}
	if k <= 0 || k > n {
		return nil, errors.New("textmine: k out of range")
	}

	seedSpan := o.Start("kmeans-seed")
	centroids := seedPlusPlus(vectors, dim, k, r, parallelism, seedSpan)
	seedSpan.End()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	// Buffers reused across iterations; blockInertia/blockChanged are
	// written once per block per sweep, so workers never share an element.
	cNorm2 := make([]float64, k)
	counts := make([]int, k)
	nb := par.Blocks(n)
	blockInertia := make([]float64, nb)
	blockChanged := make([]bool, nb)
	blockDist := make([]int64, nb)
	blockPruned := make([]int64, nb)

	// Hamerly-style pruning state. lb[i] lower-bounds the Euclidean
	// distance from document i to every centroid other than its assigned
	// one: it is the second-best distance recorded at i's last full scan,
	// decayed by the maximum centroid drift of every centroid update since.
	// A sweep first computes the exact distance to the assigned centroid
	// (the same expression the full scan would produce for it); when that
	// distance stays below lb[i] by more than boundEps, no other centroid
	// can be closer — or even tie — so the remaining k-1 evaluations are
	// skipped and the assignment and inertia contribution are unchanged
	// bit for bit. lb[i] is only touched by the block that owns i.
	lb := make([]float64, n)
	// lastD caches the exact squared distance from document i to its
	// assigned centroid, valid while that centroid has not moved since the
	// distance was last evaluated (and the assignment is unchanged). In a
	// converging run most centroids stop moving sweeps before the run ends,
	// so the cache removes even the single dot product the bound test costs
	// — a stable document is assigned at zero distance evaluations. Reuse is
	// bit-safe: an unmoved centroid means every input to the distance
	// expression is numerically unchanged, so recomputing it would produce
	// the same float64.
	// dirty tracks which centroids gained or lost a member in the last
	// sweep (per block during the sweep, merged after). A clean centroid's
	// member set is unchanged, so its sum, count, mean and squared norm
	// would all recompute to the same bits — the kernel skips them and
	// rebuilds only dirty centroids, turning the O(n·nnz + k·dim) recompute
	// into work proportional to how much actually changed. Empty centroids
	// stay dirty every iteration because an exhaustive pass redraws their
	// reseed from the RNG each time.
	// cT is the centroid matrix transposed (feature-major, cT[j*k+c] =
	// centroids[c][j]). A full scan then walks the document's features once
	// and accumulates all k dot products from k-contiguous slabs, instead
	// of striding k separate dim-length rows per document. Each per-
	// centroid sum still accumulates in feature order — the exact order
	// SparseVector.Dot uses — so every distance comes out bit-identical.
	// blockAcc gives each block its own k accumulators.
	var (
		prev       = make([]float64, k*dim) // previous centroids, for drift
		lastD      = make([]float64, n)
		lastDValid = make([]bool, n)
		cMoved     = make([]bool, k)
		dirty      = make([]bool, k)
		blockDirty = make([]bool, nb*k) // block b owns blockDirty[b*k : (b+1)*k]
		cT         = make([]float64, dim*k)
		blockAcc   = make([]float64, nb*k) // block b owns blockAcc[b*k : (b+1)*k]
	)
	for j := 0; j < dim; j++ {
		col := cT[j*k : j*k+k]
		for c := range centroids {
			col[c] = centroids[c][j]
		}
	}

	// One closure for every sweep (instead of one per iteration) keeps the
	// iteration loop allocation-free.
	sweep := func(b, lo, hi int) {
		partial := 0.0
		changed := false
		nDist, nPruned := int64(0), int64(0)
		for i := lo; i < hi; i++ {
			vec := vectors[i]
			if a := assign[i]; a >= 0 {
				var dA float64
				if lastDValid[i] {
					dA = lastD[i]
					nPruned++
				} else {
					// ||x - c||^2 = ||x||^2 + ||c||^2 - 2 x·c, ||x|| = 1.
					dA = 1 + cNorm2[a] - 2*vec.Dot(centroids[a])
					nDist++
					lastD[i] = dA
					lastDValid[i] = true
				}
				if math.Sqrt(math.Max(dA, 0))+boundEps < lb[i] {
					nPruned += int64(k - 1)
					partial += dA
					continue
				}
			}
			acc := blockAcc[b*k : (b+1)*k]
			for c := range acc {
				acc[c] = 0
			}
			for fi, idx := range vec.Idx {
				v := vec.Val[fi]
				col := cT[idx*k : idx*k+k]
				for c := range col {
					acc[c] += v * col[c]
				}
			}
			best, bestDist, secondDist := -1, math.Inf(1), math.Inf(1)
			for c := range acc {
				d := 1 + cNorm2[c] - 2*acc[c]
				if d < bestDist {
					secondDist = bestDist
					best, bestDist = c, d
				} else if d < secondDist {
					secondDist = d
				}
			}
			nDist += int64(k)
			lb[i] = math.Sqrt(math.Max(secondDist, 0))
			lastD[i] = bestDist
			lastDValid[i] = true
			if assign[i] != best {
				if a := assign[i]; a >= 0 {
					blockDirty[b*k+a] = true
				}
				blockDirty[b*k+best] = true
				assign[i] = best
				changed = true
			}
			partial += bestDist
		}
		blockInertia[b] = partial
		blockChanged[b] = changed
		blockDist[b] = nDist
		blockPruned[b] = nPruned
	}

	lloydSpan := o.Start("kmeans-lloyd")
	var inertia float64
	var totalDist, totalPruned int64
	iter := 0
	for ; iter < maxIter; iter++ {
		for c := range centroids {
			if iter > 0 && !dirty[c] {
				continue // unchanged centroid: same bits, same norm
			}
			cNorm2[c] = 0
			for _, v := range centroids[c] {
				cNorm2[c] += v * v
			}
		}
		lloydSpan.AddPool(par.ForEachBlock(parallelism, n, sweep))
		inertia = 0
		changed := false
		for b := 0; b < nb; b++ {
			inertia += blockInertia[b]
			changed = changed || blockChanged[b]
			totalDist += blockDist[b]
			totalPruned += blockPruned[b]
		}
		if !changed {
			break
		}
		// Recompute centroids. Sequential: a factor k cheaper than the
		// assignment sweep and trivially deterministic this way. Only
		// dirty centroids are rebuilt — the member sums accumulate in
		// document index order either way, so a rebuilt centroid gets the
		// same bits a full pass would give it, and a skipped one keeps
		// them. Empty clusters always rebuild because an exhaustive pass
		// redraws their reseed each iteration (same RNG sequence).
		for c := range dirty {
			dirty[c] = counts[c] == 0
		}
		for b := 0; b < nb; b++ {
			row := blockDirty[b*k : (b+1)*k]
			for c, d := range row {
				if d {
					dirty[c] = true
					row[c] = false
				}
			}
		}
		for c := range centroids {
			if !dirty[c] {
				continue
			}
			copy(prev[c*dim:(c+1)*dim], centroids[c])
			counts[c] = 0
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, vec := range vectors {
			if a := assign[i]; dirty[a] {
				vec.AddTo(centroids[a])
				counts[a]++
			}
		}
		for c := range centroids {
			if !dirty[c] {
				continue
			}
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random document.
				copyInto(centroids[c], vectors[r.Intn(n)])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
		// Refresh the transposed matrix feature-major: the writes land in
		// each feature's k-slab and the reads stream one row per dirty
		// centroid, instead of a stride-k write per coordinate.
		for j := 0; j < dim; j++ {
			col := cT[j*k : j*k+k]
			for c := range centroids {
				if dirty[c] {
					col[c] = centroids[c][j]
				}
			}
		}
		// Every lower bound loses at most the largest distance any
		// centroid just moved; an empty-cluster reseed simply shows up as
		// a large drift and disables pruning until bounds tighten. The
		// same pass flags which centroids moved at all, which is what
		// invalidates the cached assigned-centroid distances.
		maxDrift := 0.0
		anyMoved := false
		for c := range centroids {
			if !dirty[c] {
				cMoved[c] = false // skipped rebuild: identical bits
				continue
			}
			ss := 0.0
			moved := false
			old := prev[c*dim : (c+1)*dim]
			for j, v := range centroids[c] {
				dv := v - old[j]
				if dv != 0 {
					moved = true
				}
				ss += dv * dv
			}
			cMoved[c] = moved
			if moved {
				anyMoved = true
			}
			if d := math.Sqrt(ss); d > maxDrift {
				maxDrift = d
			}
		}
		if maxDrift > 0 {
			for i := range lb {
				lb[i] -= maxDrift
			}
		}
		if anyMoved {
			for i, a := range assign {
				if cMoved[a] {
					lastDValid[i] = false
				}
			}
		}
	}
	lloydSpan.End()
	m := o.Metrics()
	m.Add("textmine.kmeans_iterations", int64(iter))
	m.Add("textmine.kmeans_distances", totalDist)
	m.Add("textmine.kmeans_distances_pruned", totalPruned)
	if iter < maxIter {
		m.Add("textmine.kmeans_converged", 1)
	} else {
		m.Add("textmine.kmeans_iteration_capped", 1)
	}
	return &KMeansResult{Assignments: assign, Centroids: centroids, Inertia: inertia, Iterations: iter}, nil
}

func copyInto(dst []float64, src SparseVector) {
	for i := range dst {
		dst[i] = 0
	}
	src.AddTo(dst)
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
// All k centroids share one contiguous allocation, and the D² refresh after
// each pick runs across parallelism workers with per-block totals merged in
// block order — same bits as the sequential loop. Pool accounting for the
// D² refreshes lands on sp.
func seedPlusPlus(vectors []SparseVector, dim, k int, r *xrand.RNG, parallelism int, sp *obs.Span) [][]float64 {
	n := len(vectors)
	backing := make([]float64, k*dim)
	centroids := make([][]float64, 0, k)
	next := func() []float64 {
		lo := len(centroids) * dim
		return backing[lo : lo+dim : lo+dim]
	}

	first := next()
	copyInto(first, vectors[r.Intn(n)])
	centroids = append(centroids, first)

	dist2 := make([]float64, n)
	for i := range dist2 {
		dist2[i] = math.Inf(1)
	}
	nb := par.Blocks(n)
	blockTotal := make([]float64, nb)
	var last []float64
	var lastNorm2 float64
	update := func(b, lo, hi int) {
		partial := 0.0
		for i := lo; i < hi; i++ {
			d := 1 + lastNorm2 - 2*vectors[i].Dot(last)
			if d < 0 {
				d = 0
			}
			if d < dist2[i] {
				dist2[i] = d
			}
			partial += dist2[i]
		}
		blockTotal[b] = partial
	}
	for len(centroids) < k {
		last = centroids[len(centroids)-1]
		lastNorm2 = 0
		for _, v := range last {
			lastNorm2 += v * v
		}
		sp.AddPool(par.ForEachBlock(parallelism, n, update))
		total := 0.0
		for b := 0; b < nb; b++ {
			total += blockTotal[b]
		}
		var pick int
		if total <= 0 {
			pick = r.Intn(n)
		} else {
			target := r.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range dist2 {
				acc += d
				if target < acc {
					pick = i
					break
				}
			}
		}
		c := next()
		copyInto(c, vectors[pick])
		centroids = append(centroids, c)
	}
	return centroids
}
