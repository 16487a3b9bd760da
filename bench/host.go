package main

import (
	"os"
	"runtime"
	"strings"

	"repro"
)

// hostRecord identifies the machine a result was measured on. Results from
// hosts whose records differ are not comparable, and -compare refuses them.
type hostRecord struct {
	NProc             int    `json:"nproc"`
	GOMAXPROCS        int    `json:"gomaxprocs"`
	GoVersion         string `json:"go_version"`
	Kernel            string `json:"kernel"`
	UringSupported    bool   `json:"uring_supported"`
	DirectIOSupported bool   `json:"direct_io_supported"` // for the run directory
}

func probeHost(dir string) hostRecord {
	kernel := runtime.GOOS
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel += " " + strings.TrimSpace(string(b))
	}
	return hostRecord{
		NProc:             runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Kernel:            kernel,
		UringSupported:    empart.UringSupported(),
		DirectIOSupported: empart.DirectIOSupported(dir),
	}
}
