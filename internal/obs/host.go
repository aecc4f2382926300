package obs

import (
	"os"
	"runtime"
	"strings"
	"sync"
)

// Host is the machine identity stamped into benchmark outputs and
// metrics snapshots — the same fields BENCH_*.json record by hand. Perf
// numbers without a host are noise.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

var (
	hostOnce sync.Once
	hostInfo Host
)

// HostInfo returns the current machine's identity. The CPU model comes
// from /proc/cpuinfo on Linux and degrades to "unknown" elsewhere; the
// rest is the runtime's view. Cached after the first call (GOMAXPROCS
// is read at that moment).
func HostInfo() Host {
	hostOnce.Do(func() {
		hostInfo = Host{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPU:        cpuModel(),
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
	})
	return hostInfo
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(k) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
