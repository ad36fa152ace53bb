package cli

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfilingWritesEveryOutput checks Start/stop produce a non-empty CPU
// profile, heap profile and execution trace, and that empty paths stay off.
func TestProfilingWritesEveryOutput(t *testing.T) {
	dir := t.TempDir()
	p := Profiling{
		CPU:   filepath.Join(dir, "cpu.pprof"),
		Mem:   filepath.Join(dir, "mem.pprof"),
		Trace: filepath.Join(dir, "exec.trace"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{p.CPU, p.Mem, p.Trace} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}

	stop, err = (&Profiling{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
