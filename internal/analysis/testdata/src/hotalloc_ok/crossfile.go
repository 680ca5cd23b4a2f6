// Directives govern lines of their own file only. hotalloc_ok.go
// carries a //lmovet:hotpath directive on line 15, which governs its
// lines 15 and 16; coldLabel below is declared on line 16 of this file
// and is not hot, so its fmt call is no finding.
package hotalloc_ok

import "fmt"

// coldLabel formats a label for a cold path. It allocates, and no hot
// function calls it.
//
// The doc comment runs to line 15 so that the declaration lands on
// line 16, the line number the other file's directive governs. Moving
// it would leave the test passing whether or not directives leak
// across files.
func coldLabel(n int) string {
	return fmt.Sprintf("cold-%d", n)
}
