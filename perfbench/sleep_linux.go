package main

import (
	"syscall"
	"time"
)

// sleepFine sleeps for d in the kernel. time.Sleep in an otherwise idle
// process wakes up to a millisecond late, which would dominate the open
// loop's latencies at the rates serve offers.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
