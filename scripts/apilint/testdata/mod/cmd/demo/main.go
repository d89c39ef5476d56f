// Command demo is the root of the planted program.
package main

import (
	"fmt"

	"lintdemo/internal/demo"
)

func main() {
	fmt.Println(demo.Live(), demo.Total(demo.Square{Side: 2}), demo.Sized(demo.Config{Size: 3}), demo.Sized(demo.Preset()))
	fmt.Println(demo.Tally(map[string]int{"a": 1}))
}
