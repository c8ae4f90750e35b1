package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// relTol bounds how far a distance the program reports may sit from the
// reference's float64 recomputation, as a share of the distance's
// magnitude. The program accumulates float32 components in float64 in a
// blocked order of its own, so the two agree to the last few bits only.
const relTol = 1e-5

// reference is the benchmark's own brute force. It works in float64 on the
// generated vectors and shares no code with the program: no vecmath, no
// dataset.BruteForceKNN. It follows the program's result conventions: for
// L2 a distance is the Euclidean distance (not its square), for inner
// product it is the negated dot product.
type reference struct {
	ip   bool
	vecs [][]float32 // indexed by id, including every id the ingest workload's writes assign
}

// nb is one reference neighbour.
type nb struct {
	id   uint32
	dist float64
}

// dist returns the reference distance of id to q and the tolerance a
// reported distance must meet.
func (r *reference) dist(q []float32, id uint32) (d, tol float64) {
	v := r.vecs[id]
	if r.ip {
		var dot, mag float64
		for i, x := range q {
			t := float64(x) * float64(v[i])
			dot += t
			mag += math.Abs(t)
		}
		return -dot, relTol*mag + 1e-12
	}
	var s float64
	for i, x := range q {
		t := float64(x) - float64(v[i])
		s += t * t
	}
	d = math.Sqrt(s)
	return d, relTol*d + 1e-12
}

// topK is the exact k nearest neighbours of q among the ids live accepts
// (nil: all), in ascending (dist, id) order.
func (r *reference) topK(q []float32, k int, live func(uint32) bool) []nb {
	best := make([]nb, 0, k+1)
	for id := range r.vecs {
		if live != nil && !live(uint32(id)) {
			continue
		}
		d, _ := r.dist(q, uint32(id))
		if len(best) == k && d >= best[k-1].dist {
			continue
		}
		pos := sort.Search(len(best), func(i int) bool { return best[i].dist > d })
		best = append(best, nb{})
		copy(best[pos+1:], best[pos:])
		best[pos] = nb{uint32(id), d}
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// truths computes topK for every query on two goroutines.
func (r *reference) truths(qs [][]float32, k int, live func(uint32) bool) [][]nb {
	out := make([][]nb, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += 2 {
				out[i] = r.topK(qs[i], k, live)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// result is one neighbour as the server reports it.
type result struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// checkShape verifies what holds for every route: k distinct ids below
// maxID, in ascending distance order, each distance matching the
// reference's recomputation.
func (r *reference) checkShape(q []float32, res []result, k int, maxID uint32) error {
	if len(res) != k {
		return fmt.Errorf("got %d results, want %d", len(res), k)
	}
	seen := make(map[uint32]bool, k)
	for i, n := range res {
		if n.ID >= maxID {
			return fmt.Errorf("result %d: id %d out of range (%d ids assigned)", i, n.ID, maxID)
		}
		if seen[n.ID] {
			return fmt.Errorf("result %d: id %d repeated", i, n.ID)
		}
		seen[n.ID] = true
		if i > 0 && n.Dist < res[i-1].Dist {
			return fmt.Errorf("result %d: distance %v below its predecessor %v", i, n.Dist, res[i-1].Dist)
		}
		d, tol := r.dist(q, n.ID)
		if math.Abs(n.Dist-d) > tol {
			return fmt.Errorf("result %d: id %d reported at %v, reference %v", i, n.ID, n.Dist, d)
		}
	}
	return nil
}

// hits counts the results that lie within the reference k-th distance, so
// a tie at the k-th place counts as a hit whichever id the program chose.
func (r *reference) hits(q []float32, res []result, truth []nb) int {
	kth := truth[len(truth)-1].dist
	h := 0
	for _, n := range res {
		d, tol := r.dist(q, n.ID)
		if d <= kth+tol {
			h++
		}
	}
	return h
}

// checkExact verifies an answer that must be exact up to ties: its k-th
// distance equals the reference k-th distance and every id lies within it.
func (r *reference) checkExact(q []float32, res []result, truth []nb) error {
	kth := truth[len(truth)-1].dist
	_, tol := r.dist(q, truth[len(truth)-1].id)
	if got := res[len(res)-1].Dist; math.Abs(got-kth) > tol {
		return fmt.Errorf("k-th distance %v, reference %v", got, kth)
	}
	if h := r.hits(q, res, truth); h != len(truth) {
		return fmt.Errorf("%d of %d ids lie beyond the reference k-th distance", len(truth)-h, len(truth))
	}
	return nil
}
