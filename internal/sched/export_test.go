package sched

// SetOnEnqueue installs the hook Acquire calls when a caller has joined
// the queue and is about to wait for a slot, so tests can order their
// steps on that event.
func (a *Admission) SetOnEnqueue(f func()) { a.onEnqueue = f }
