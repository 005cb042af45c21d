//go:build !linux

package main

import "time"

func sleepFine(d time.Duration) { time.Sleep(d) }
