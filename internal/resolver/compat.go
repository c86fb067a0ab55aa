package resolver

// This file keeps the retired backend API compiling for the benchmark
// harness in perfbench/, which is frozen between benchmark changes and still
// opens sessions through it. Nothing else in the module uses it. A zero-size
// Backend has one value, so none of it is a knob.

// Backend is the retired backend factory. Its one value opens the one
// in-process session.
//
// Deprecated: use NewSession.
type Backend struct{}

// Options is the retired per-session option set. It is empty.
//
// Deprecated: NewSession takes no options.
type Options struct{}

// NewBatch returns the Backend.
//
// Deprecated: use NewSession.
func NewBatch() Backend { return Backend{} }

// NewStreaming returns the Backend.
//
// Deprecated: use NewSession.
func NewStreaming() Backend { return Backend{} }

// Open returns NewSession() and a nil error.
//
// Deprecated: use NewSession.
func (Backend) Open(Options) (Session, error) { return NewSession(), nil }
