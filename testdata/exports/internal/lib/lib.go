// Package lib is the export checker's fixture: each name below is one
// case TestExportCheckFixture pins.
package lib

import "fmt"

// Used has a non-test caller in the root package.
func Used() int { return 1 }

// TestOnly is called only from lib_test.go: the checker flags it.
func TestOnly() int { return 2 }

// NestedOnly is called only from the nested module.
func NestedOnly() int { return 3 }

// Allowed has no caller but is allowlisted.
func Allowed() int { return 4 }

// Config has one field a caller sets and one only a test sets.
type Config struct {
	Set     int
	TestSet int
}

// Point satisfies fmt.Stringer and shape.Shape; neither method has a
// direct caller.
type Point struct{ X, Y float64 }

func (p Point) String() string { return fmt.Sprintf("(%v, %v)", p.X, p.Y) }

func (p Point) Area() float64 { return 0 }
