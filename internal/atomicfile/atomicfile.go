// Package atomicfile writes files atomically. Data lands in a temporary
// file in the destination directory and is renamed over the target, so a
// crash mid-write can only ever leave a stray temp file behind — never a
// truncated artifact. The corrector uses it for fixed copies of user PHP
// sources and the scan service for persisted report artifacts.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically: a temp file in path's directory
// receives the bytes, is synced and closed, and is renamed over path. The
// rename is atomic on POSIX filesystems; on any error the temp file is
// removed and the previous contents of path are untouched.
func WriteFile(path string, data []byte, perm os.FileMode) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	// CreateTemp opens 0600; match the caller's requested mode before the
	// file becomes visible under its final name.
	if err = tmp.Chmod(perm); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}
