package core

import (
	"errors"
	"fmt"
)

// ErrCanceled is the sentinel a canceled evaluation wraps: MapInto,
// EvalTiles and the incremental engine's Flush return an error matching
// errors.Is(err, ErrCanceled) when their context is canceled or its
// deadline expires mid-map. The concrete error is a *CancelError
// carrying partial-progress accounting.
var ErrCanceled = errors.New("core: evaluation canceled")

// CancelError reports a cooperatively canceled evaluation. Cancellation
// is checked per tile — never per point — so at most one tile's work
// runs after the context fires. The destination slice holds valid
// values for every completed tile and stale/zero values elsewhere;
// callers that need a consistent map must re-evaluate (the incremental
// engine keeps its dirty flags set so the next Flush does exactly
// that).
type CancelError struct {
	// TilesDone is the number of tiles fully evaluated before the
	// cancellation was observed.
	TilesDone int
	// TilesTotal is the number of tiles the call was asked to evaluate.
	TilesTotal int
	// Cause is the context error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *CancelError) Error() string {
	return fmt.Sprintf("core: evaluation canceled after %d of %d tiles: %v",
		e.TilesDone, e.TilesTotal, e.Cause)
}

// Unwrap exposes both the ErrCanceled sentinel and the context cause,
// so errors.Is works against either.
func (e *CancelError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// PanicError is a kernel panic contained by the evaluation engine: a
// panic raised while evaluating a tile is recovered on its worker
// goroutine and surfaced as an error instead of killing the process.
// The destination slice is left partially written; treat the
// evaluation as failed.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: evaluation panicked: %v", e.Value)
}
