//go:build unix

package campaign

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFileSinkRefusesFIFO: a sink path naming a FIFO is refused, and the
// FIFO is still one afterwards. Renaming the finished file over a device
// or a FIFO would leave a regular file in its place.
func TestFileSinkRefusesFIFO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	checkSinkRefused(t, path)
	if fi, err := os.Lstat(path); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Fatalf("%s is no longer a FIFO (stat %v, err %v)", path, fi, err)
	}
}

// TestFileSinkRefusesSymlink: a sink path naming a symbolic link is
// refused even when the link points at a regular file, because Close's
// rename would replace the link rather than write its target. The link
// and its target are left as they were.
func TestFileSinkRefusesSymlink(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target.jsonl")
	if err := os.WriteFile(target, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out.jsonl")
	if err := os.Symlink(target, path); err != nil {
		t.Skipf("symlink: %v", err)
	}
	checkSinkRefused(t, path)
	if fi, err := os.Lstat(path); err != nil || fi.Mode().Type() != os.ModeSymlink {
		t.Fatalf("%s is no longer a symbolic link (stat %v, err %v)", path, fi, err)
	}
	if b, err := os.ReadFile(target); err != nil || string(b) != "keep\n" {
		t.Fatalf("link target = %q, %v; want it untouched", b, err)
	}
}
