// Package coreutil shares a prefix with the balance-sensitive package core
// but is not it: scope matching compares whole path segments, so raw float
// comparisons here are outside floateq's scope and nothing is flagged.
package coreutil

// Eq compares exactly and is not reported.
func Eq(a, b float64) bool { return a == b }
