//go:build !unix

package modelstore

import "os"

// fileID has no portable file identity to report outside unix; index
// signatures there rest on size and modification time alone.
func fileID(os.FileInfo) (dev, ino uint64) { return 0, 0 }

// isLinked has no link count to read outside unix; an open file there
// cannot lose its name.
func isLinked(os.FileInfo) bool { return true }
