// Package spanclose is the spanclose golden fixture. It carries a local
// stub of the obs span API: the analyzer keys off the Child/Root → Span
// shape, not the obs import path, exactly so fixtures and future
// observability packages are covered without configuration.
package spanclose

import "errors"

// Span mirrors obs.Span: Child opens, End/EndCount close.
type Span struct{ name string }

// Child opens a child span.
func (s Span) Child(name string) Span { return Span{name: name} }

// End closes the span.
func (s Span) End() {}

// EndCount closes the span with a count.
func (s Span) EndCount(n int64) {}

// Trace mirrors obs.Trace.
type Trace struct{}

// Root opens the root span.
func (t *Trace) Root(name string) Span { return Span{name: name} }

var errBoom = errors.New("boom")

// LeakOnError forgets sp on the error return path — the exact bug class
// the PR 7 sweep fixed.
func LeakOnError(parent Span, fail bool) error {
	sp := parent.Child("stage") // want "span sp is not ended by a defer on the next statement"
	if fail {
		return errBoom
	}
	sp.End()
	return nil
}

// ClosedEverywhere ends sp by hand on both paths. It leaks nothing today,
// but only a path walk can tell, and the next early return breaks it.
func ClosedEverywhere(parent Span, fail bool) error {
	sp := parent.Child("stage") // want "span sp is not ended by a defer on the next statement"
	if fail {
		sp.End()
		return errBoom
	}
	sp.EndCount(1)
	return nil
}

// DeferTooLate defers the end only after a statement that can return
// first.
func DeferTooLate(parent Span, fail bool) error {
	sp := parent.Child("stage") // want "span sp is not ended by a defer on the next statement"
	if fail {
		return errBoom
	}
	defer sp.End()
	return nil
}

// DeferClose ends sp with a plain defer, covering every later path —
// clean.
func DeferClose(parent Span, fail bool) error {
	sp := parent.Child("stage")
	defer sp.End()
	if fail {
		return errBoom
	}
	return nil
}

// Stage is obs.Stage's shape: a deferred func literal ends the span with
// the count f returned, on a panic too — clean.
func Stage(parent Span, name string, f func(Span) (int64, error)) error {
	var n int64
	sp := parent.Child(name)
	defer func() { sp.EndCount(n) }()
	n, err := f(sp)
	return err
}

// Request opens a root span and defers its end — clean.
func Request(t *Trace, serve func(Span)) {
	root := t.Root("query")
	defer root.End()
	serve(root)
}

// Discarded opens spans nobody can end.
func Discarded(parent Span) {
	parent.Child("stage")     // want "span result discarded"
	_ = parent.Child("stage") // want "span result discarded"
}

// Handed passes a span on instead of ending it here.
func Handed(parent Span, use func(Span)) Span {
	use(parent.Child("arg"))   // want "span is not bound to a variable and ended by a defer"
	return parent.Child("ret") // want "span is not bound to a variable and ended by a defer"
}

// Annotated suppresses a span ended elsewhere with a justification.
func Annotated(parent Span, fail bool) error {
	sp := parent.Child("stage") //pgvet:spanok fixture: a registry sweep ends the span out of band
	if fail {
		return errBoom
	}
	sp.End()
	return nil
}

// Unjustified carries the annotation without its why.
func Unjustified(parent Span) {
	//pgvet:spanok
	sp := parent.Child("stage") // want "annotation is missing its one-line justification"
	sp.End()
}

// LeakAtEnd falls off the end of the function with sp still open.
func LeakAtEnd(parent Span) {
	sp := parent.Child("stage") // want "span sp is not ended by a defer on the next statement"
	_ = sp
}
