// Package cmdtest runs a command's main function inside its own test
// binary, so every cmd/ and examples/ program is executed end to end by
// go test.
package cmdtest

import (
	"io"
	"os"
	"testing"
	"time"
)

// Run calls main with os.Stdout redirected to a pipe and returns what it
// printed. A main still running after 10 s fails the test: each of these
// programs boots a simulated machine, and a wedged share group would
// otherwise hang the suite instead of naming the program.
func Run(t testing.TB, main func()) []byte {
	t.Helper()
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()

	done := make(chan struct{})
	go func() {
		main()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("main did not return within 10 s")
	}
	w.Close()
	return <-out
}
