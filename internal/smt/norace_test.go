//go:build !race

package smt

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
