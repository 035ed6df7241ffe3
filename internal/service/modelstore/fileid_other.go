//go:build !unix

package modelstore

import "os"

// fileID has no portable file identity to report outside unix; index
// signatures there rest on size and modification time alone.
func fileID(os.FileInfo) (dev, ino uint64) { return 0, 0 }
