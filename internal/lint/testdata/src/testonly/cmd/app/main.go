// Command app is the module's non-test code: what it calls is live.
package main

import (
	"fmt"

	"testonly.example/internal/lib"
)

func main() {
	var _ lib.Twin
	p := lib.NewProbe()
	fmt.Println(lib.Used(), lib.StaleAllow(), lib.Reach(p), p)
}
