package machine

// ReflectiveHashes reports how many HashValue calls so far fell back to
// hashing a payload's formatted form.
func ReflectiveHashes() uint64 { return reflectiveHashes.Load() }
