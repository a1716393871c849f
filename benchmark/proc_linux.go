package main

import "syscall"

// childAttr makes a rep's child process die with the parent, so a parent
// killed mid-run leaves nothing running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
