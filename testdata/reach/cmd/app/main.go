// Command app is the fixture's one program.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Live()) }
