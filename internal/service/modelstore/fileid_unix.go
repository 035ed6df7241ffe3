//go:build unix

package modelstore

import (
	"os"
	"syscall"
)

// fileID returns the device and inode numbers that identify fi's file.
func fileID(fi os.FileInfo) (dev, ino uint64) {
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return uint64(st.Dev), uint64(st.Ino)
	}
	return 0, 0
}

// isLinked reports whether fi's file still has a name: an append file
// whose directory entry was removed must not receive another entry.
func isLinked(fi os.FileInfo) bool {
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return st.Nlink > 0
	}
	return true
}
