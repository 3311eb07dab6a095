package universe

// BuildEager assembles the eager reference universe — every delegation, DS,
// glue record and deposit materialized up front — that
// TestLazyEagerEquivalence holds the default lazy build to.
func BuildEager(opts Options) (*Universe, error) { return build(opts, true) }
