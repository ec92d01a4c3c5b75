package main

import (
	"math/big"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"prever/internal/group"
)

// yardstick measures the host beside a workload: every yardEvery it does
// one fixed piece of arithmetic (a 2048-bit modular exponentiation with a
// 128-bit exponent, straight from math/big, none of this repository's
// code) and records what that cost in CPU time of its own thread. The work
// never changes, so a change in its cost is a change in the host: this
// machine is a few hyperthreads of a shared server, and when the
// neighbours are busy the same instructions take up to twice as long, for
// seconds or for ten minutes at a time.
//
// The closed-loop workloads keep every processor busy, so they slow down by
// the factor the yardstick does (measured in README.md: it removes 70-80 %
// of the run-to-run spread). Their bounded metrics are therefore stated at
// the reference host's speed: each window's value is scaled by that
// window's slowdown, cost ÷ yardNominal. The yardstick takes about 1.5 %
// of one processor.
type yardstick struct {
	t0   time.Time
	stop chan struct{}
	done sync.WaitGroup
	at   []time.Duration // when each burst started, from t0
	cost []time.Duration
}

const (
	yardEvery = 20 * time.Millisecond
	// yardNominal is what the burst costs on the box the benchmark was
	// calibrated on (2 vCPUs of a 2.1 GHz Xeon) when the host is quiet. On
	// another machine every scaled metric shifts by one constant factor.
	yardNominal = 260 * time.Microsecond
)

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// startYardstick starts the bursts; offsets count from now.
func startYardstick() *yardstick {
	y := &yardstick{t0: time.Now(), stop: make(chan struct{})}
	y.done.Add(1)
	go func() {
		defer y.done.Done()
		// The thread's CPU clock is only the burst's if the goroutine
		// stays on it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		p := group.MODP2048().P
		e := new(big.Int).Lsh(big.NewInt(1), 127)
		x := big.NewInt(3)
		tick := time.NewTicker(yardEvery)
		defer tick.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-tick.C:
			}
			at, c0 := time.Since(y.t0), threadCPU()
			x.Exp(x, e, p)
			y.at, y.cost = append(y.at, at), append(y.cost, threadCPU()-c0)
		}
	}()
	return y
}

// halt stops the bursts; the readings may be used after it returns.
func (y *yardstick) halt() {
	close(y.stop)
	y.done.Wait()
}

// slowdown is the median cost of the bursts that started in [lo, hi) over
// yardNominal: 1 on the quiet reference host. With no burst in the
// interval it is 1, which leaves a value as measured.
func (y *yardstick) slowdown(lo, hi time.Duration) float64 {
	var v []float64
	for i, at := range y.at {
		if at >= lo && at < hi && y.cost[i] > 0 {
			v = append(v, float64(y.cost[i]))
		}
	}
	if len(v) == 0 {
		return 1
	}
	return median(v) / float64(yardNominal)
}

// perWindow is the slowdown in each window of sec.
func (y *yardstick) perWindow(sec section) []float64 {
	out := make([]float64, sec.n)
	for w := range out {
		out[w] = y.slowdown(sec.window(w))
	}
	return out
}
