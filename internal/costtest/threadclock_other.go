//go:build !linux

package costtest

import "time"

var clockStart = time.Now()

// threadCPU falls back to the wall clock where no per-thread CPU clock
// is read: a ratio then counts time the thread spent descheduled.
func threadCPU() time.Duration { return time.Since(clockStart) }
