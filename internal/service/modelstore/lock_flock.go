//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package modelstore

import (
	"errors"
	"os"
	"syscall"
)

// haveLocks: this platform has flock(2). A writer holds an exclusive lock
// on a store file for exactly the span of one append (or tail cut), so a
// reader that finds bytes after a file's last complete entry can tell a
// write in progress (the lock is held) from a torn one (it is not).
const haveLocks = true

// lockExclusive blocks until f is exclusively locked. Closing f releases
// the lock.
func lockExclusive(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
	}
}

// tryLockShared takes a shared lock on f without blocking; ok is false
// when a writer holds the file exclusively.
func tryLockShared(f *os.File) (ok bool, err error) {
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_SH|syscall.LOCK_NB)
		switch {
		case err == nil:
			return true, nil
		case errors.Is(err, syscall.EWOULDBLOCK):
			return false, nil
		case !errors.Is(err, syscall.EINTR):
			return false, err
		}
	}
}

// unlock releases f's lock.
func unlock(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
