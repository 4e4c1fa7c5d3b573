// Package allowok exercises the //lint:allow pragma: correctly-waived
// violations stay silent, malformed or unused pragmas are findings
// themselves.
package allowok

import "context"

// Detached anchors a background context deliberately; the pragma on the
// preceding line waives the ctxflow finding.
func Detached() context.Context {
	//lint:allow ctxflow test fixture deliberately anchors a background context
	return context.Background()
}

// Inline carries the pragma as a trailing comment on the offending line.
func Inline() context.Context {
	return context.Background() //lint:allow ctxflow trailing pragma on the offending line
}

// Stale waives a violation that is not there: the pragma suppressed no
// finding, so it is reported itself.
func Stale() context.Context {
	//lint:allow ctxflow fixture: waives nothing, the context is threaded
	// want-above pragma "suppressed no finding"
	return nil
}

// Unknown analyzer name: the pragma itself is reported and cannot be
// suppressed.
//lint:allow bogusname some reason
// want-above pragma "malformed //lint:allow"

// Missing reason: likewise reported.
//lint:allow ctxflow
// want-above pragma "needs a reason"

// Unwaived keeps one live finding so suppression is visibly selective.
func Unwaived() context.Context {
	return context.TODO() // want ctxflow "severs cancellation"
}
