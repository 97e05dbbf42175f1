package main

import (
	"hash/fnv"
	"sort"
)

// answer is the canonical digest of a query result: the alphabetized
// column list plus an order-independent hash of the row multiset. Two
// results are equal as sorted multisets with alphabetized columns exactly
// when their answers are equal (up to hash collisions), so plans that
// join in a different order — and therefore emit columns and rows in a
// different order — still compare equal, while a missing, extra or
// duplicated row does not.
type answer struct {
	Columns uint64
	Rows    int
	Sum     uint64
	Mix     uint64
}

// digestRows computes the canonical digest of a result in O(rows) without
// sorting the rows: each row is hashed with its values reordered to the
// alphabetized column order, and the row hashes are combined with two
// commutative sums (the second over a remixed hash, so that swapping
// multiplicities between rows is caught too).
func digestRows(cols []string, rows [][]int64) answer {
	perm := make([]int, len(cols))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return cols[perm[a]] < cols[perm[b]] })
	h := fnv.New64a()
	for _, j := range perm {
		h.Write([]byte(cols[j]))
		h.Write([]byte{0})
	}
	d := answer{Columns: h.Sum64(), Rows: len(rows)}
	for _, r := range rows {
		x := uint64(14695981039346656037)
		for _, j := range perm {
			x ^= uint64(r[j])
			x *= 1099511628211
			x ^= x >> 29
		}
		d.Sum += x
		d.Mix += splitmix(x)
	}
	return d
}

// splitmix is the SplitMix64 finalizer, an invertible 64-bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
