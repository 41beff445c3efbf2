// Package labeling implements the labeling functions λ : R → L of Section
// 3.3: range-based labelers built from explicitly-specified, complete and
// non-overlapping intervals (Section 3.3.1, e.g. the 5stars function of
// Listing 3), and distribution-based labelers that adapt the label
// boundaries to the overall distribution of the comparison values (Section
// 3.3.2): k-quantiles (equi-depth), equi-width histograms, rounded
// z-scores, and 1-D k-means clustering with an optimal number of clusters.
package labeling

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// NullLabel is assigned to cells whose comparison value is NaN (e.g. the
// unmatched cells kept by the assess* variant).
const NullLabel = "null"

// MaxLabels is the most labels a labeler may name, besides NullLabel: a
// label is one byte of a Column.
const MaxLabels = 255

// Column is a label column in coded form, the form coordinates have: cell
// i's label is Names[Codes[i]]. Names is the labeler's label set,
// NullLabel among them (library labelers put it at code 0); a labeler
// hands the same Names to every Apply, so it is read-only.
type Column struct {
	Codes []uint8
	Names []string
}

// Name returns cell i's label.
func (c Column) Name(i int) string { return c.Names[c.Codes[i]] }

// Labeler assigns one label to every value of the comparison column. NaN
// values receive NullLabel.
type Labeler interface {
	// Name identifies the labeler (for Explain output).
	Name() string
	// Apply labels every value, one code per value into the labeler's
	// label set. The input is never modified.
	Apply(values []float64) Column
}

// labelSet is the names of a Column whose codes 1… are labels: NullLabel
// at code 0, then labels. It refuses more than MaxLabels.
func labelSet(labels []string) ([]string, error) {
	if len(labels) > MaxLabels {
		return nil, fmt.Errorf("labeling: %d labels, at most %d", len(labels), MaxLabels)
	}
	return append([]string{NullLabel}, labels...), nil
}

// Interval is one labeling rule: values in the (possibly open, possibly
// unbounded) interval receive Label.
type Interval struct {
	Lo, Hi         float64 // bounds; use math.Inf for ±inf
	LoOpen, HiOpen bool    // true for '(' and ')'
	Label          string
}

// Contains reports whether v falls in the interval.
func (iv Interval) Contains(v float64) bool {
	switch {
	case v < iv.Lo || (v == iv.Lo && iv.LoOpen):
		return false
	case v > iv.Hi || (v == iv.Hi && iv.HiOpen):
		return false
	}
	return true
}

// String renders the interval in the paper's syntax, e.g. "[0, 0.9): bad".
func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%s, %s%s: %s", lb, fmtBound(iv.Lo), fmtBound(iv.Hi), rb, iv.Label)
}

func fmtBound(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	return fmt.Sprintf("%g", v)
}

// Ranges is a range-based labeling function: an ordered set of disjoint
// intervals. It is the implementation behind inline `labels {…}` clauses
// and predeclared functions such as 5stars.
//
// Apply finds a value's code without a branch: the intervals' ends are
// ascending bounds, a value's position among them is how many it reaches,
// and segment maps a position to the code of the interval it lies in, or
// to null in a gap. Values and bounds are compared as order keys, whose
// unsigned order is the floats' order, so a comparison is a subtraction's
// borrow. NaN reaches none, and below the first bound is a gap.
type Ranges struct {
	name      string
	intervals []Interval
	names     []string // NullLabel, then each distinct label in interval order
	bounds    []uint64 // ascending order keys
	segment   []uint8  // len(bounds)+1 codes: segment[k] is the code of a value reaching k bounds
}

// NewRanges builds a range labeler and validates that the intervals are
// pairwise disjoint (the paper requires a partition; completeness over all
// of R is not required — values outside every range receive NullLabel,
// which Validate can optionally forbid).
func NewRanges(name string, intervals []Interval) (*Ranges, error) {
	ivs := append([]Interval(nil), intervals...)
	sort.SliceStable(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return !ivs[i].LoOpen && ivs[j].LoOpen
	})
	for i, iv := range ivs {
		if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
			return nil, fmt.Errorf("labeling: NaN bound in %s", iv)
		}
		if iv.Lo > iv.Hi || (iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen)) {
			return nil, fmt.Errorf("labeling: empty interval %s", iv)
		}
		if iv.Label == "" {
			return nil, fmt.Errorf("labeling: interval %s has an empty label", iv)
		}
		if i == 0 {
			continue
		}
		prev := ivs[i-1]
		if iv.Lo < prev.Hi || (iv.Lo == prev.Hi && !iv.LoOpen && !prev.HiOpen) {
			return nil, fmt.Errorf("labeling: overlapping intervals %s and %s", prev, iv)
		}
	}
	r := &Ranges{name: name, intervals: ivs, segment: []uint8{0}}
	var labels []string
	codes := make(map[string]uint8)
	// reach adds bound b: values from b up to the next bound get code.
	// Touching intervals share a bound, and the empty gap between them
	// is dropped.
	reach := func(b uint64, code uint8) {
		if n := len(r.bounds); n > 0 && r.bounds[n-1] == b {
			r.segment[n] = code
			return
		}
		r.bounds = append(r.bounds, b)
		r.segment = append(r.segment, code)
	}
	for _, iv := range ivs {
		code, ok := codes[iv.Label]
		if !ok {
			labels = append(labels, iv.Label)
			code = uint8(len(labels)) // more than MaxLabels fail below
			codes[iv.Label] = code
		}
		reach(iv.start(), code)
		reach(iv.past(), 0)
	}
	var err error
	if r.names, err = labelSet(labels); err != nil {
		return nil, err
	}
	return r, nil
}

// orderKey maps v to a key whose unsigned order is the order of floats,
// with -0 below +0, and NaN to 0, which no bound is.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	key := b ^ (uint64(int64(b)>>63) | 1<<63)
	_, nan := bits.Sub64(0x7FF0000000000000, b&^(1<<63), 0)
	return key & (nan - 1)
}

// atLeast is the bound the values v ≥ t reach: t's key, or -0's for
// either zero, so that both zeros reach it.
func atLeast(t float64) uint64 {
	if t == 0 {
		t = math.Copysign(0, -1)
	}
	return orderKey(t)
}

// start is the bound every value of the interval reaches: v > Lo is
// v ≥ the next float up.
func (iv Interval) start() uint64 {
	if iv.LoOpen {
		return atLeast(math.Nextafter(iv.Lo, math.Inf(1)))
	}
	return atLeast(iv.Lo)
}

// past is the bound the values beyond the interval reach: v ≥ Hi past
// an open end, v > Hi past a closed one, and none past a closed +inf.
func (iv Interval) past() uint64 {
	switch {
	case iv.HiOpen:
		return atLeast(iv.Hi)
	case math.IsInf(iv.Hi, 1):
		return math.MaxUint64 // only NaN keys are as high, and they are 0
	}
	return atLeast(math.Nextafter(iv.Hi, math.Inf(1)))
}

// MustRanges is NewRanges that panics on error.
func MustRanges(name string, intervals []Interval) *Ranges {
	r, err := NewRanges(name, intervals)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements Labeler.
func (r *Ranges) Name() string { return r.name }

// Intervals returns the validated, ordered intervals.
func (r *Ranges) Intervals() []Interval { return r.intervals }

// Complete reports whether the intervals cover all of R with no gaps, i.e.
// the labeling partitions the comparison domain into equivalence classes.
func (r *Ranges) Complete() bool {
	if len(r.intervals) == 0 {
		return false
	}
	first, last := r.intervals[0], r.intervals[len(r.intervals)-1]
	if !math.IsInf(first.Lo, -1) || !math.IsInf(last.Hi, 1) {
		return false
	}
	for i := 1; i < len(r.intervals); i++ {
		prev, cur := r.intervals[i-1], r.intervals[i]
		if prev.Hi != cur.Lo || prev.HiOpen == cur.LoOpen {
			return false
		}
	}
	return true
}

// Apply implements Labeler: a value's code is the segment of the bounds
// its key reaches, counted by the borrows of subtractions.
func (r *Ranges) Apply(values []float64) Column {
	codes := make([]uint8, len(values))
	bounds, segment := r.bounds, r.segment
	for i, v := range values {
		key, k := orderKey(v), uint64(len(bounds))
		for _, b := range bounds {
			_, below := bits.Sub64(key, b, 0)
			k -= below
		}
		codes[i] = segment[k]
	}
	return Column{Codes: codes, Names: r.names}
}

// String renders the full rule set in the paper's inline syntax.
func (r *Ranges) String() string {
	parts := make([]string, len(r.intervals))
	for i, iv := range r.intervals {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
