// Package support stands for a test-support package: only tests import
// it, and the directive below says so.
//
//lint:ignore unreached test-support package, imported by tests only
package support

// Helper is skipped with the rest of the package.
func Helper() {}
