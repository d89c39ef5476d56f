package demo

import "sort"

// Tally plants the det check: ranges over a map with a //det: reason on
// their line and on the line above, one with an empty reason, and one
// over sorted keys.
func Tally(m map[string]int) (sum int, keys []string) {
	for _, v := range m { //det: an integer sum does not depend on order
		sum += v
	}
	//det: keys are sorted below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum += m[k]
	}
	//det:
	for k := range m {
		keys = append(keys, k)
	}
	return sum, keys
}
