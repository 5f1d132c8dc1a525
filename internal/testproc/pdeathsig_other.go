//go:build !linux

package testproc

import "syscall"

// Only Linux can tie a child's life to its parent's; elsewhere Start's
// cleanup is the only guard.
func dieWithParent() *syscall.SysProcAttr { return nil }
