//go:build !linux

package main

import "os/exec"

func dieWithParent(*exec.Cmd) {}
