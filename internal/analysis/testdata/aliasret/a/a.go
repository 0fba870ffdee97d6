// Package a seeds aliasret violations: exported functions that retain or
// return caller-supplied slices/maps without copying, next to the clean
// defensive-copy idioms the pass must accept.
package a

// Store is a retained-state struct used by the cases below.
type Store struct {
	ids    []int
	byName map[string]int
}

var global []int

// NewBad stores the caller's slice straight into the returned struct.
func NewBad(ids []int) *Store {
	return &Store{ids: ids} // want `NewBad retains its caller-supplied slice "ids" without copying`
}

// NewCopied reassigns the parameter to a fresh backing array first: clean.
func NewCopied(ids []int) *Store {
	ids = append([]int(nil), ids...)
	return &Store{ids: ids}
}

// NewMapBad aliases the caller's map.
func NewMapBad(m map[string]int) *Store {
	return &Store{byName: m} // want `NewMapBad retains its caller-supplied map "m" without copying`
}

// NewMapCopied rebuilds the map: clean.
func NewMapCopied(m map[string]int) *Store {
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return &Store{byName: c}
}

// SetIDs assigns the parameter into a field.
func (s *Store) SetIDs(ids []int) {
	s.ids = ids // want `SetIDs retains its caller-supplied slice "ids" without copying`
}

// SetIDsCopied copies on every path before the store: clean.
func (s *Store) SetIDsCopied(ids []int) {
	ids = append([]int(nil), ids...)
	s.ids = ids
}

// SetIDsOnOnePath copies on one branch only: the other still aliases.
func (s *Store) SetIDsOnOnePath(ids []int, safe bool) {
	if safe {
		ids = append([]int(nil), ids...)
	}
	s.ids = ids // want `SetIDsOnOnePath retains its caller-supplied slice "ids" without copying`
}

// Publish stashes the parameter in a package-level variable.
func Publish(ids []int) {
	global = ids // want `Publish retains its caller-supplied slice "ids" without copying`
}

// Identity hands the caller's slice straight back.
func Identity(ids []int) []int {
	return ids // want `Identity returns its caller-supplied slice "ids" without copying`
}

// Cloned returns a fresh slice built from the input: clean.
func Cloned(ids []int) []int {
	return append([]int(nil), ids...)
}

// Grown appends in place before returning: append reuses the caller's
// backing array whenever capacity suffices, so the result can still
// alias it — a self-append is not a defensive copy.
func Grown(ids []int, x int) []int {
	ids = append(ids, x)
	return ids // want `Grown returns its caller-supplied slice "ids" without copying`
}

// GrownIntoField self-appends and then retains: same aliasing hazard.
func (s *Store) GrownIntoField(ids []int, x int) {
	ids = append(ids, x)
	s.ids = ids // want `GrownIntoField retains its caller-supplied slice "ids" without copying`
}

// Sum only reads the parameter: clean.
func Sum(ids []int) int {
	total := 0
	for _, v := range ids {
		total += v
	}
	return total
}

// KeepLocal copies into a local that never outlives the call: clean.
func KeepLocal(ids []int) int {
	local := ids
	return len(local)
}

// NewThroughLocal stores the caller's slice through one local copy of the
// parameter: the local shares the caller's backing store.
func NewThroughLocal(ids []int) *Store {
	owner := ids
	return &Store{ids: owner} // want `NewThroughLocal retains its caller-supplied slice "ids" through local "owner" without copying`
}

// SplitThroughLocal hands the caller's slice back through one local, as
// the second of two results.
func SplitThroughLocal(ids []int) (int, []int) {
	back := ids
	return len(back), back // want `SplitThroughLocal returns its caller-supplied slice "ids" through local "back" without copying`
}

// PublishThroughChain stores a local of a local of the parameter.
func PublishThroughChain(ids []int) {
	first := ids
	var second = first
	global = second // want `PublishThroughChain retains its caller-supplied slice "ids" through local "second" without copying`
}

// LocalBeforeCopy takes the local before copying the parameter: copying
// the parameter afterwards leaves the local on the caller's store.
func LocalBeforeCopy(ids []int) *Store {
	owner := ids
	ids = append([]int(nil), ids...)
	return &Store{ids: owner, byName: map[string]int{"n": len(ids)}} // want `LocalBeforeCopy retains its caller-supplied slice "ids" through local "owner" without copying`
}

// LocalAfterCopy takes the local after the defensive copy: clean.
func LocalAfterCopy(ids []int) *Store {
	ids = append([]int(nil), ids...)
	owner := ids
	return &Store{ids: owner}
}

// LocalRecopied copies through the local itself; a local assigned twice
// is not tracked: clean.
func LocalRecopied(ids []int) *Store {
	owner := ids
	owner = append([]int(nil), owner...)
	return &Store{ids: owner}
}

// register is unexported: intra-package handoff is the package's business.
func register(ids []int) *Store {
	return &Store{ids: ids}
}

var _ = register
