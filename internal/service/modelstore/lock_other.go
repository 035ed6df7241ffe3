//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package modelstore

import "os"

// haveLocks: no advisory file lock here. Readers cannot tell an append in
// progress from a torn one, so every unfinished tail counts as torn, and a
// fill never cuts a tail off another handle's file.
const haveLocks = false

func lockExclusive(*os.File) error                { return nil }
func tryLockShared(*os.File) (ok bool, err error) { return true, nil }
func unlock(*os.File) error                       { return nil }
