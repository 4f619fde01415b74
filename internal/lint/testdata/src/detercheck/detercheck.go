// Corpus for the detercheck analyzer: order-dependent appends and
// output inside range-over-map, with the sorted-afterwards, loop-local,
// and keyed-write exemptions.
package detercheck

import (
	"fmt"
	"slices"
	"sort"
)

type result struct{ scores []float64 }

// Keys leaks map iteration order into the returned slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "order depends on map iteration"
	}
	return out
}

// KeysSorted is the sanctioned pattern: append, then sort.
func KeysSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KeysSortedFunc sorts with the slices package: also sanctioned.
func KeysSortedFunc(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b string) int { return len(a) - len(b) })
	return out
}

// KeysContains only searches the map-ordered slice; it is never sorted.
func KeysContains(m map[string]int) ([]string, bool) {
	var out []string
	for k := range m {
		out = append(out, k) // want "order depends on map iteration"
	}
	return out, slices.Contains(out, "jordan")
}

// KeysCompact drops adjacent duplicates, which keeps map order.
func KeysCompact(m map[string]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want "order depends on map iteration"
	}
	return slices.Compact(out)
}

// KeysSearch binary-searches a slice that was never sorted.
func KeysSearch(m map[string]int) int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want "order depends on map iteration"
	}
	return sort.SearchInts(out, 3) + sort.Search(len(out), func(i int) bool { return out[i] >= 3 })
}

// FieldAppend leaks map order into a struct field.
func FieldAppend(m map[string]float64, r *result) {
	for _, v := range m {
		r.scores = append(r.scores, v) // want "order depends on map iteration"
	}
}

// Emit prints in map order.
func Emit(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "output order depends on map iteration"
	}
}

// LoopLocal appends to per-iteration scratch consumed inside the loop.
func LoopLocal(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// KeyedWrite builds a map from a map: content is order-independent.
func KeyedWrite(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v + 1
	}
	return out
}

// Suppressed documents why unordered is fine here.
func Suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		//nolint:microlint/detercheck -- feeds a set membership test; order never observable
		out = append(out, k)
	}
	return out
}
