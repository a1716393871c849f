package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo records what the numbers were measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUMax     string `json:"cgroup_cpu_max"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	StateFS    string `json:"state_dir_fs"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu.max=%q cpu=%q kernel=%s %s state-fs=%s",
		h.NumCPU, h.GOMAXPROCS, h.CPUMax, h.CPUModel, h.Kernel, h.GoVersion, h.StateFS)
}

// probeHost reads the host description from /proc and /sys. Anything it
// cannot read is left empty.
func probeHost(stateDir string) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUMax:     readTrim("/sys/fs/cgroup/cpu.max"),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		GoVersion:  runtime.Version(),
	}
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	h.StateFS = mountType(stateDir)
	return h
}

// peakRSSMB is this process's resident-set high-water mark in MB. It is
// read from /proc rather than taken from the parent's rusage, which would
// also count the parent's memory, shared with the child until its exec.
func peakRSSMB() float64 {
	for _, line := range strings.Split(readTrim("/proc/self/status"), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// mountType returns the filesystem type of the mount holding dir: the
// longest mount point in /proc/self/mounts that contains it.
func mountType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	best, fsType := "", ""
	for _, line := range strings.Split(readTrim("/proc/self/mounts"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		inside := abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")
		if inside && len(mnt) > len(best) {
			best, fsType = mnt, f[2]
		}
	}
	return fsType
}
