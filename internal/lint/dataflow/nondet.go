package dataflow

import (
	"go/types"
	"strings"
)

// A StdKind classifies a standard-library function by the
// nondeterminism it brings into a run, or takes out of one.
type StdKind uint8

const (
	// NotNondet is every function the table does not list.
	NotNondet StdKind = iota
	// ClockRead returns the current wall-clock time.
	ClockRead
	// ClockTimer waits on the wall clock through a timer or channel the
	// caller can select on.
	ClockTimer
	// ClockSleep blocks the goroutine on the wall clock with no escape.
	ClockSleep
	// GlobalRand draws from math/rand's auto-seeded global generator.
	GlobalRand
	// MapOrder yields a map's entries in iteration order.
	MapOrder
	// Sorts orders its argument or its result, so iteration order no
	// longer shows.
	Sorts
)

// stdTable is the one table of standard-library calls the lint suite
// treats as nondeterministic, or as sorting nondeterminism away. The
// detflow taint, the determinism analyzer and its service rule all read
// it through Std. Package-level math/rand draws are matched by rule in
// Std instead: everything but the seeded New* constructors.
var stdTable = map[string]StdKind{
	"time.Now": ClockRead, "time.Since": ClockRead, "time.Until": ClockRead,

	"time.After": ClockTimer, "time.AfterFunc": ClockTimer, "time.Tick": ClockTimer,
	"time.NewTicker": ClockTimer, "time.NewTimer": ClockTimer,
	"time.Sleep": ClockSleep,

	"maps.Keys": MapOrder, "maps.Values": MapOrder,

	"sort.Strings": Sorts, "sort.Ints": Sorts, "sort.Float64s": Sorts,
	"sort.Slice": Sorts, "sort.SliceStable": Sorts, "sort.Sort": Sorts, "sort.Stable": Sorts,
	"slices.Sort": Sorts, "slices.SortFunc": Sorts, "slices.SortStableFunc": Sorts,
	"slices.Sorted": Sorts, "slices.SortedFunc": Sorts, "slices.SortedStableFunc": Sorts,
}

// Std classifies fn against the table and names it as
// "<import path>.<name>". Methods are never listed: a method on an owned
// value ((*rand.Rand).Intn on a seeded generator, (*time.Timer).Stop)
// is the sanctioned shape.
func Std(fn *types.Func) (StdKind, string) {
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return NotNondet, ""
	}
	name := fn.Pkg().Path() + "." + fn.Name()
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			return GlobalRand, name
		}
		return NotNondet, name
	}
	return stdTable[name], name
}
