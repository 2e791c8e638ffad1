package main

import (
	"os"
	"os/exec"
	"syscall"
)

// detach makes a child die with the bench, so a bench killed from outside
// leaves no daemon behind.
func detach(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSMB returns an exited child's maximum resident set size in MB.
func peakRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
