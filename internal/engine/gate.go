package engine

import "context"

// gateCtxKey / specCtxKey are the context keys of the two request
// markers the server threads through Exec.
type gateCtxKey struct{}
type specCtxKey struct{}

// ComputeGate is the admission hook Exec consults at the moment it
// commits to COMPUTING a keyed artifact (store miss, remote miss, and
// this caller is the singleflight leader). It returns a release
// function to call when the computation finishes, or an error to
// refuse it; both may be nil (admit for free — the request already
// holds gate capacity, or re-admission is a no-op for this request).
//
// The hook closes the warm-probe TOCTOU window: a request classified
// warm by an index probe bypasses the server's admission gate, but the
// artifact can be evicted between probe and Exec — without this hook
// that request would compute ungated under saturation. Exec calls the
// gate only on the compute path, so genuinely warm traffic still
// bypasses for free.
type ComputeGate func(ctx context.Context) (release func(), err error)

// WithComputeGate returns a context carrying gate; Exec consults it
// before every leader computation under this context (dependency jobs
// included — they run under the same context). Contexts without a gate
// (CLIs, speculative launches, replication pushes) compute ungated.
func WithComputeGate(ctx context.Context, gate ComputeGate) context.Context {
	return context.WithValue(ctx, gateCtxKey{}, gate)
}

// computeGateFrom extracts the gate installed by WithComputeGate.
func computeGateFrom(ctx context.Context) ComputeGate {
	g, _ := ctx.Value(gateCtxKey{}).(ComputeGate)
	return g
}

// WithSpeculative marks ctx as driving a speculative (predicted, not
// demanded) computation: Exec stamps speculative=true on its exec
// spans so traces distinguish predicted work from demand work.
func WithSpeculative(ctx context.Context) context.Context {
	return context.WithValue(ctx, specCtxKey{}, true)
}

// IsSpeculative reports whether ctx was marked by WithSpeculative.
func IsSpeculative(ctx context.Context) bool {
	v, _ := ctx.Value(specCtxKey{}).(bool)
	return v
}
