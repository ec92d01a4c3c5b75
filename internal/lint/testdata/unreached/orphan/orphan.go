// Package orphan has no importer: it is reported once, at this clause,
// and its declarations are not reported one by one.
package orphan // want unreached

// Unused would be reported in an imported package.
func Unused() {}
