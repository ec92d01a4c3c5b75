//go:build !linux

package mpc

import "time"

var clockStart = time.Now()

// threadCPU falls back to the wall clock where no per-thread CPU clock
// is read: the cost gate then sees time the thread spent descheduled.
func threadCPU() time.Duration { return time.Since(clockStart) }
