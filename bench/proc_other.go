//go:build !linux

package main

import (
	"os"
	"os/exec"
)

func detach(*exec.Cmd) {}

// peakRSSMB is unmeasured off Linux; the bench then reports 0.
func peakRSSMB(*os.ProcessState) float64 { return 0 }
