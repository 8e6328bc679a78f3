//go:build race

package memory

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// The race detector does not instrument the clear builtin, so a race
// build reports SubArena.Reset's stores itself: any port access to the
// region that is not ordered against the Reset is then a reported race.
func init() {
	raceWrite = func(words []atomic.Uint64) {
		runtime.RaceWriteRange(unsafe.Pointer(&words[0]), len(words)*8)
	}
}
