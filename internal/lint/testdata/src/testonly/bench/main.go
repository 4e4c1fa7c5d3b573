// Command bench is a second module that replaces the first with its
// directory, as a benchmark kept in its own module does.
package main

import (
	"fmt"

	"testonly.example/internal/lib"
)

func main() {
	var m lib.Meter
	fmt.Println(lib.Benched(), m.Tick())
}
