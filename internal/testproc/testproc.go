// Package testproc runs the child processes of end-to-end tests so that
// none outlives its test.
package testproc

import (
	"os/exec"
	"testing"
)

// Start starts cmd as a child that cannot outlive the test: on Linux the
// kernel SIGKILLs it when the test binary dies (a -timeout panic skips
// deferred calls), and t.Cleanup kills and reaps it when the test ends,
// also after t.Fatal.
func Start(t testing.TB, cmd *exec.Cmd) {
	t.Helper()
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", cmd.Path, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // fails once the test has stopped it itself
		_ = cmd.Wait()
	})
}

// CombinedOutput runs cmd to completion, as exec.Cmd.CombinedOutput does,
// with the child set to die with the test binary.
func CombinedOutput(cmd *exec.Cmd) ([]byte, error) {
	cmd.SysProcAttr = dieWithParent()
	return cmd.CombinedOutput()
}
