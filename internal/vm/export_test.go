package vm

// MaxCallDepth exposes the call-depth bound to the external tests.
const MaxCallDepth = maxCallDepth

// Chunk sizes of the object allocator, for the allocation gate.
const (
	ChunkObjects = chunkObjects
	ChunkValues  = chunkValues
)

// The array bounds, for the external tests.
const (
	MaxArrayLength = maxArrayLength
	MaxArraySlots  = maxArraySlots
)
