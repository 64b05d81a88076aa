package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
	"example.com/fixture/internal/shape"
)

func main() {
	var s shape.Shape = lib.Point{X: 1, Y: 2}
	fmt.Println(lib.Used(), lib.Config{Set: 1}, s)
}
