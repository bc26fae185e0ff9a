package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLocal runs kv-pmem or trace-dirtbuster: repetitions in fresh
// child processes until the time budget is spent. A traced run
// alternates untraced and traced repetitions, so the tracing overhead
// compares repetitions made under the same host conditions.
func runLocal(o opts) (*summary, error) {
	s := &summary{}
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	var first *rep
	for i := 0; ; i++ {
		t0 := time.Now()
		r := spawnRep(o, o.traced && i%2 == 1, i == 0)
		if i == 0 {
			first = r
			verifyFirst(o, r)
		} else {
			checkRepeat(first, r)
		}
		s.add(r)
		took := time.Since(t0)
		if i+1 >= minReps && time.Since(start)+took > budget {
			break
		}
	}
	return s, nil
}

// verifyFirst runs the checks made once per run on its first
// repetition, outside any timed region; a failure fails that
// repetition.
func verifyFirst(o opts, r *rep) {
	switch o.workload {
	case wlKV:
		if pin, ok := kvPinned[o.scale]; ok && o.seed == defaultSeed && len(r.Digests) == 1 {
			r.check(r.Digests[0] == pin, "kv-pmem table digest %s, pinned %s", r.Digests[0], pin)
		}
	case wlTrace:
		verifyTraces(r, len(traceInputs(o.seed, o.scale)))
	}
}

// spawnRep runs one repetition in a child process. Set-up time runs
// from starting the child to its "ready" line; peak RSS is the
// child's. A child that fails is a failed job.
func spawnRep(o opts, traced, keep bool) *rep {
	broken := func(format string, args ...any) *rep {
		r := &rep{Traced: traced, Attempted: 1}
		r.fail(format, args...)
		return r
	}
	self, err := os.Executable()
	if err != nil {
		return broken("locating perfbench: %v", err)
	}
	args := []string{"--child", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--scale", o.scale, "--work", o.work, "--trace", strconv.Itoa(b2i(traced))}
	if keep {
		args = append(args, "--keep")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	out, err := cmd.StdoutPipe()
	if err != nil {
		return broken("child pipe: %v", err)
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return broken("starting child: %v", err)
	}
	br := bufio.NewReaderSize(out, 1<<16)
	line, readErr := br.ReadString('\n')
	setup := since(t0)
	var r rep
	decErr := fmt.Errorf("child never became ready (%q, %v)", line, readErr)
	if line == "ready\n" {
		decErr = json.NewDecoder(br).Decode(&r)
	}
	_, _ = io.Copy(io.Discard, br) // drain so the child never blocks on a full pipe
	waitErr := cmd.Wait()
	switch {
	case waitErr != nil:
		return broken("%s child: %v", o.workload, waitErr)
	case decErr != nil:
		return broken("%s child output: %v", o.workload, decErr)
	}
	r.Traced = traced
	r.SetupS = setup
	return &r
}

// runChild runs one repetition in this process and prints "ready"
// after set-up, then the repetition's measurements as one JSON line.
func runChild(o opts) error {
	ready := func() { os.Stdout.WriteString("ready\n") }
	var (
		r   *rep
		err error
	)
	switch o.workload {
	case wlKV:
		r, err = kvRep(o, ready)
	case wlTrace:
		r, err = traceRep(o, ready)
	default:
		return fmt.Errorf("no child mode for workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	r.PeakRSSMB = peakRSSMB(os.Getpid())
	return json.NewEncoder(os.Stdout).Encode(r)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB reads a live process's peak resident set (VmHWM) in MB. It
// is read from /proc rather than from wait4's rusage: a child started
// with vfork semantics inherits the parent's high-water mark in its
// rusage, so the orchestrator's own memory would leak into it.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
