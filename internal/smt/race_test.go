//go:build race

package smt

// raceBuild reports a -race build, where the exhaustive parity matrices
// run a sample of their cells to keep the race job's wall time bounded;
// the plain test run covers every cell.
const raceBuild = true
