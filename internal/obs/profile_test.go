package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles checks that stop leaves a CPU profile and a heap
// snapshot behind, and that an uncreatable CPU path is reported up front
// with a stop that is still safe to call.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// pprof writes gzip-compressed protocol buffers.
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(p), len(b))
		}
	}

	stop, err = StartProfiles(filepath.Join(dir, "missing", "cpu.prof"), mem)
	if err == nil {
		t.Fatal("StartProfiles accepted an uncreatable CPU profile path")
	}
	stop()
}
