//go:build !linux

package simnet

func newWakeClock() wakeClock { return newRuntimeClock() }
