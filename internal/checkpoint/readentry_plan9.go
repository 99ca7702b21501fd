package checkpoint

import "os"

// readEntry reads the file at path. Plan 9's syscall.Open takes no
// permission argument and reports errors as strings, not errnos, so there
// the cache reads through os.ReadFile.
func readEntry(path string, _ []byte) ([]byte, error) {
	return os.ReadFile(path)
}
