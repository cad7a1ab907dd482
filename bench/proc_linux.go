package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child if the benchmark dies without
// running its own clean-up (SIGKILL from a time-out, a crash).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
