package simnet

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is the Linux wakeClock: a CLOCK_MONOTONIC timerfd read through
// the runtime netpoller. The scheduler parks on the fd and epoll wakes it
// when the timer expires, where a runtime timer would wait for
// epoll_wait's next whole millisecond on an idle process.
type timerfd struct {
	fd  int      // for timerfd_settime; f owns it
	f   *os.File // non-blocking, so Read parks in the netpoller
	buf [8]byte  // the expiration count Read returns
}

// newWakeClock returns a timerfd, or the runtime timer if the kernel
// refuses one (EMFILE, a sandbox without timerfd).
func newWakeClock() wakeClock {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newRuntimeClock()
	}
	return &timerfd{fd: int(fd), f: os.NewFile(fd, "simnet-timerfd")}
}

func (t *timerfd) arm(d time.Duration) {
	if d < 1 {
		d = 1 // a zero it_value would disarm the timer
	}
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		panic("simnet: timerfd_settime: " + errno.Error())
	}
}

func (t *timerfd) wait() bool {
	_, err := t.f.Read(t.buf[:])
	return err == nil
}

func (t *timerfd) close() { t.f.Close() }
