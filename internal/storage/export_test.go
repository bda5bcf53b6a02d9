package storage

// ColumnBuilt reports whether column col of r has its index built, for
// the external tests of the lazy indexes.
func ColumnBuilt(r *Relation, col int) bool {
	return r.index != nil && r.index[col].Load() != nil
}
