package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"

	"prestores/internal/obs"
)

// tracer records the benchmark's own spans around its calls into the
// layers. The zero value records nothing.
type tracer struct{ *obs.Tracer }

func newTracer(on bool) tracer {
	if !on {
		return tracer{}
	}
	return tracer{&obs.Tracer{Service: "perfbench", Instance: fmt.Sprint(os.Getpid()),
		Store: obs.NewStore(0, 1<<20)}}
}

func (t tracer) spans() []obs.Span {
	if !t.Enabled() {
		return nil
	}
	s, _ := t.Store.All()
	return s
}

// cpuProfile is the CPU profile of a traced repetition, written to a
// file in the scratch directory.
type cpuProfile struct{ f *os.File }

func startProfile(on bool, dir string) *cpuProfile {
	if !on {
		return nil
	}
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
		return nil
	}
	return &cpuProfile{f: f}
}

// stop ends the profile and returns its samples by host_share
// package (nil when not profiling).
func (p *cpuProfile) stop() map[string]int64 {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	p.f.Close()
	defer os.Remove(p.f.Name())
	return samplesByPackage(p.f.Name())
}

// samplesByPackage charges each sample of the pprof profile at path to
// the package of its innermost frame: the flat sample counts that
// go tool pprof lists per function.
func samplesByPackage(path string) map[string]int64 {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-edgefraction=0", "-sample_index=samples", path).Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading cpu profile:", err)
		return nil
	}
	m := map[string]int64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "flat" {
			rows = true // the column header; one function per line follows
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			m[pkgOf(f[5])] += n
		}
	}
	return m
}
