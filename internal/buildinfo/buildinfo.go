// Package buildinfo identifies the binary: a VCS revision injected at
// link time plus the Go toolchain version. Every long-running entry
// point (rmeserver, rmebench) exposes it behind a -version flag,
// and the Prometheus exporter surfaces it as the rme_build_info gauge so
// dashboards can correlate metric shifts with deploys.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// revision is stamped by the build:
//
//	go build -ldflags "-X rme/internal/buildinfo.revision=$(git rev-parse --short HEAD)"
//
// When unset we fall back to the module build info (set for
// `go build` inside a VCS checkout), then to "dev".
var revision string

// Revision returns the VCS revision of this binary, "dev" if unknown.
func Revision() string {
	if revision != "" {
		return revision
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "dev"
}

// GoVersion returns the toolchain that built this binary.
func GoVersion() string { return runtime.Version() }

// String renders the one-line form printed by -version flags.
func String(binary string) string {
	return fmt.Sprintf("%s revision=%s %s", binary, Revision(), GoVersion())
}
