//go:build !plan9

package checkpoint

import (
	"os"
	"syscall"
)

// readEntry appends the contents of the file at path to buf. It is
// os.ReadFile without an *os.File: one open and reads until EOF, each
// retried on EINTR as os retries them, then a close, and no descriptor
// configuration or poller registration. Errors are *os.PathError, as
// os.ReadFile's are.
func readEntry(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	// Not retried on EINTR, as os does not retry it: Linux releases the
	// descriptor even then, so a second close could close one another
	// goroutine has just been given. Read-only, a failed close loses
	// nothing.
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}
