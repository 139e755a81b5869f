package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/cmdtest"
)

// TestVshRuns runs the built-in demo script end to end under a deadline —
// files and links, a pipe to a forked child reaped with wait(2), four
// share-group workers — and checks what each line printed.
func TestVshRuns(t *testing.T) {
	// Under go test os.Args carries the test flags; vsh would read the
	// first as its script file.
	args := os.Args
	os.Args = args[:1]
	defer func() { os.Args = args }()

	got := cmdtest.Run(t, main)
	for _, want := range []string{
		"Enhanced Resource Sharing in UNIX\nby J. M. Barton and J. C. Wagner\n",
		"  -640     67  csrd.txt\n  -640     67  paper.txt\n",
		"| SHARE GROUPS WENT BEYOND THREADS\n",
		"  -640     67  paper.txt\n  -640    120  results.txt\n",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no %q in the output:\n%s", want, got)
		}
	}
	if n := bytes.Count(got, []byte(" reporting from pid ")); n != 4 {
		t.Errorf("%d workers reported, want 4:\n%s", n, got)
	}
	if bytes.Contains(got, []byte("vsh: line ")) {
		t.Errorf("a script line failed:\n%s", got)
	}
}
