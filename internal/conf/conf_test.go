package conf

import (
	"sync"
	"testing"
	"time"
)

func TestDefaultsAndReset(t *testing.T) {
	Reset()
	got := Snapshot()
	if got != Defaults() {
		t.Fatalf("fresh snapshot %+v != defaults %+v", got, Defaults())
	}
	Update(func(c *Config) { c.BatchSize = 7 })
	if got := Snapshot().BatchSize; got != 7 {
		t.Fatalf("BatchSize = %d, want 7", got)
	}
	Reset()
	if Snapshot().BatchSize != Defaults().BatchSize {
		t.Fatalf("Reset did not restore batch size")
	}
}

func TestSettersAreSnapshotConsistent(t *testing.T) {
	Reset()
	defer Reset()
	// A snapshot taken before an update never shows the new values.
	before := Snapshot()
	Update(func(c *Config) {
		c.BatchSize = 128
		c.MaxInFlight = 9
	})
	if before.BatchSize != Defaults().BatchSize {
		t.Fatalf("held snapshot mutated: %+v", before)
	}
	after := Snapshot()
	if after.BatchSize != 128 || after.MaxInFlight != 9 {
		t.Fatalf("update not visible: %+v", after)
	}
}

func TestSanitizeClampsNonsense(t *testing.T) {
	defer Reset()
	Set(Config{BatchSize: -1, FlushInterval: -time.Second, MaxInFlight: 0, MempoolCap: -5})
	c := Snapshot()
	if c.BatchSize < 1 || c.MaxInFlight < 1 || c.MempoolCap < 1 || c.FlushInterval < 0 {
		t.Fatalf("sanitize failed: %+v", c)
	}
}

func TestConcurrentUpdatesLoseNothing(t *testing.T) {
	defer Reset()
	Reset()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			Update(func(c *Config) { c.BatchSize = 100 })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			Update(func(c *Config) { c.MempoolCap = 16 })
		}
	}()
	wg.Wait()
	c := Snapshot()
	if c.BatchSize != 100 || c.MempoolCap != 16 {
		t.Fatalf("concurrent single-field updates interfered: %+v", c)
	}
}
