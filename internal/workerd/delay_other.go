//go:build !linux

package workerd

import "time"

// delay blocks the calling goroutine for d, to the runtime timer's
// granularity: syscall offers no nanosleep off Linux.
func delay(d time.Duration) { time.Sleep(d) }
