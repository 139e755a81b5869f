package cmdtest

import (
	"fmt"
	"os"
	"testing"
)

func TestRunCapturesStdout(t *testing.T) {
	before := os.Stdout
	got := Run(t, func() { fmt.Println("printed by main") })
	if string(got) != "printed by main\n" {
		t.Errorf("captured %q", got)
	}
	if os.Stdout != before {
		t.Error("os.Stdout not restored")
	}
}
