package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one request as the generator saw it. Offsets are from the
// start of the load (warm-up included).
type sample struct {
	due, start, end time.Duration // due == start in a closed loop
	free            time.Duration // when its worker was due and free to send it
	ops, failed     int
	read            bool
	span            string // the call the request went into (depth replays)
}

func (s sample) latency() time.Duration { return s.end - s.due }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func repeated(x float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = x
	}
	return v
}

// quartiles are Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the driver uses to judge spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		m := median(s)
		return m, m, m
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// windowWidth is the width of the equal windows a timed section is cut
// into (never fewer than minWindows of them). A bounded metric is the
// midmean of its per-window values, each first put at the reference host's
// speed by the yardstick's reading in that window (yardstick.go): the
// shared host this runs on slows down by 20 % to 100 % for seconds to ten
// minutes at a time, and a window is short enough to have one speed.
// README.md has the calibration.
const (
	windowWidth = time.Second
	minWindows  = 5
)

// midmean is the mean of the middle half of the non-zero values of v (the
// interquartile mean). A zero is a window without a sample.
func midmean(v []float64) float64 {
	var s []float64
	for _, x := range v {
		if x > 0 {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	trim := (len(s) + 3) / 4 // a quarter from each end, rounded up: of three values, the median
	if 2*trim >= len(s) {
		trim = (len(s) - 1) / 2
	}
	mid := s[trim : len(s)-trim]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// bestQuartile is the value a quarter of the way into the non-zero values
// of v ordered best first: the second of 5 or 6, the seventh of 24. The
// depth replays use it, whose slices are not scaled.
func bestQuartile(v []float64, better string) float64 {
	var s []float64
	for _, x := range v {
		if x > 0 {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	k := len(s) / 4
	if better == higher {
		return s[len(s)-1-k]
	}
	return s[k]
}

// section is the timed part of a run.
type section struct {
	from, to time.Duration
	n        int // windows
	// cpu is the measured process's CPU clock at each window boundary.
	cpu []time.Duration
}

func newSection(from, to time.Duration) section {
	n := max(minWindows, int((to-from)/windowWidth))
	return section{from: from, to: to, n: n, cpu: make([]time.Duration, n+1)}
}

func (sec section) window(w int) (lo, hi time.Duration) {
	width := (sec.to - sec.from) / time.Duration(sec.n)
	return sec.from + time.Duration(w)*width, sec.from + time.Duration(w+1)*width
}

// opsIn is the acknowledged operations of the picked samples inside
// [lo, hi): a request's operations are spread evenly over its [due, end)
// interval, so long requests do not quantize short windows.
func opsIn(samples []sample, lo, hi time.Duration, pick func(sample) bool) float64 {
	var total float64
	for _, s := range samples {
		if !pick(s) || s.end <= s.due {
			continue
		}
		if a, b := max(s.due, lo), min(s.end, hi); b > a {
			total += float64(s.ops-s.failed) * float64(b-a) / float64(s.end-s.due)
		}
	}
	return total
}

func reads(s sample) bool  { return s.read }
func writes(s sample) bool { return !s.read }
func any1(sample) bool     { return true }

// rates is acknowledged operations per second in each window.
func (sec section) rates(samples []sample, pick func(sample) bool) []float64 {
	rates := make([]float64, sec.n)
	for w := range rates {
		lo, hi := sec.window(w)
		rates[w] = opsIn(samples, lo, hi, pick) / (hi - lo).Seconds()
	}
	return rates
}

// p50s is each window's median latency, in ms, of the requests due in it;
// 0 for a window in which none was due.
func (sec section) p50s(samples []sample, read bool) []float64 {
	p50s := make([]float64, sec.n)
	for w := range p50s {
		lo, hi := sec.window(w)
		p50s[w] = percentile(latencies(samples, lo, hi, read), 0.5)
	}
	return p50s
}

// cpuPerOp is the measured process's CPU time per completed operation, in
// microseconds, in each window; 0 for a window in which none completed.
func (sec section) cpuPerOp(samples []sample) []float64 {
	per := make([]float64, sec.n)
	for w := range per {
		lo, hi := sec.window(w)
		if ops := opsIn(samples, lo, hi, any1); ops > 0 {
			per[w] = us(sec.cpu[w+1]-sec.cpu[w]) / ops
		}
	}
	return per
}

// probeCPU reads a CPU clock at every window boundary of sec, counted from
// now, and returns a function that waits for the last reading.
func (sec *section) probeCPU(read func() time.Duration) (wait func()) {
	var wg sync.WaitGroup
	for b := 0; b <= sec.n; b++ {
		at, _ := sec.window(b)
		wg.Add(1)
		time.AfterFunc(at, func() {
			defer wg.Done()
			sec.cpu[b] = read()
		})
	}
	return wg.Wait
}

// latencies returns the sorted latencies, in ms, of the samples of one kind
// that were due inside [from, to).
func latencies(samples []sample, from, to time.Duration, read bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.read == read && s.due >= from && s.due < to {
			out = append(out, ms(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// procCPU is user+system CPU time of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	const clockTick = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU is user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "Vm*:" line of /proc/<pid>/status, in kB.
func procStatusKB(pid int, field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
	}
	return 0
}

// childPID finds the live child of this process running the named binary:
// harness.Proc does not expose the pid its /proc entries need.
func childPID(comm string) (int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0, err
	}
	self := strconv.Itoa(os.Getpid())
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		line := string(b)
		open, shut := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
		if open < 0 || shut < open {
			continue
		}
		f := strings.Fields(line[shut+1:])
		// f[0] is the state, f[1] the parent pid.
		if len(f) < 2 || f[1] != self || f[0] == "Z" {
			continue
		}
		if strings.HasPrefix(comm, line[open+1:shut]) { // the kernel truncates comm to 15 bytes
			return pid, nil
		}
	}
	return 0, fmt.Errorf("no live %s child of pid %s", comm, self)
}

// dirBytes sums the regular files under dir and counts those matching glob.
func dirBytes(dir, glob string) (bytes int64, matched int) {
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return nil // a file rotated away mid-walk is not an error here
		}
		bytes += info.Size()
		if ok, _ := filepath.Match(glob, info.Name()); ok {
			matched++
		}
		return nil
	})
	return bytes, matched
}
