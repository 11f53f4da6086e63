package vm

// MaxCallDepth exposes the call-depth bound to the external tests.
const MaxCallDepth = maxCallDepth
