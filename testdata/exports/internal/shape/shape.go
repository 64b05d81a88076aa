// Package shape declares the interface lib.Point satisfies.
package shape

// Shape is anything with an area.
type Shape interface{ Area() float64 }
