package tree

// The reference parser and the structural comparison, for the external
// tests that need packages importing this one (the gen corpus, ReadTrees).
var (
	ReferenceReadLines = referenceReadLines
	SameStructure      = sameStructure
)
