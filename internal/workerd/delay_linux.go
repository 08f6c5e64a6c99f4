package workerd

import (
	"syscall"
	"time"
)

// delay blocks the calling goroutine for d. An idle Go scheduler waits for
// its next timer in epoll_wait, whose timeout is whole milliseconds, so a
// 50 µs time.Sleep takes about a millisecond and a slowed worker would run
// far slower than its fault plan says. nanosleep blocks only this OS thread;
// the runtime hands its P to other goroutines meanwhile, and the wait costs
// no CPU.
func delay(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
