package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prever/internal/netsim"
	"prever/internal/wal"
)

func durableShardCfg(dir string) ShardConfig {
	return ShardConfig{
		Name:          "s0",
		F:             1,
		Collections:   map[string][]string{"collA": {"s0/peer0", "s0/peer1", "s0/peer2"}},
		Timeout:       5 * time.Second,
		DataDir:       dir,
		SnapshotEvery: 8,
	}
}

// TestShardDurableRestart: a shard closed and rebuilt on a fresh network
// from the same data directory serves every committed key from disk
// alone — world state, chain integrity, and the private-data hash all
// survive (private VALUES live off-chain and are expected lost).
func TestShardDurableRestart(t *testing.T) {
	dir := t.TempDir()
	net1 := netsim.New(netsim.Config{})
	s, err := NewShard(net1, durableShardCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	chans := make([]<-chan Result, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, s.SubmitAsync(Tx{
			Kind:  TxPut,
			Key:   fmt.Sprintf("k%02d", i),
			Value: []byte(fmt.Sprintf("v%02d", i)),
		}))
	}
	chans = append(chans, s.SubmitPrivate("collA", "pk", []byte("secret")))
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	// Let every backup execute (the client acks after a quorum), then
	// shut storage down cleanly.
	waitHeights(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Process restart": fresh network, same directories.
	net2 := netsim.New(netsim.Config{})
	s2, err := NewShard(net2, durableShardCfg(dir))
	if err != nil {
		t.Fatalf("reopening shard from %s: %v", dir, err)
	}
	defer s2.Close()
	for _, p := range s2.Peers() {
		for i := 0; i < n; i++ {
			got, err := p.Get(fmt.Sprintf("k%02d", i))
			if err != nil || string(got) != fmt.Sprintf("v%02d", i) {
				t.Fatalf("%s: recovered Get(k%02d) = %q, %v", p.ID(), i, got, err)
			}
		}
		if bad, err := VerifyBlocks(p.Blocks()); err != nil {
			t.Fatalf("%s: recovered chain invalid at block %d: %v", p.ID(), bad, err)
		}
	}
	// The private value was off-chain: members keep its hash (the chain
	// verifies), but GetPrivate reports the value missing until the
	// writer redistributes it.
	if _, err := s2.Peers()[0].GetPrivate("collA", "pk"); err == nil {
		t.Fatal("private VALUE should not survive a disk-only recovery")
	}

	// The recovered shard accepts fresh transactions (no dedup collision
	// with the previous incarnation's tx IDs or client sequence).
	res := <-s2.SubmitAsync(Tx{Kind: TxPut, Key: "post", Value: []byte("restart")})
	if res.Err != nil {
		t.Fatalf("post-restart submit: %v", res.Err)
	}
	if got, err := s2.Peers()[0].Get("post"); err != nil || string(got) != "restart" {
		t.Fatalf("post-restart Get = %q, %v", got, err)
	}
}

// TestCommittedIDIsDuplicateAfterRestart: exactly-once as the client
// sees it outlives the process. A shard reopened on its data directory
// rebuilds every peer's id set from the chain, so resubmitting an id
// committed before the restart — one the caller chose, one SubmitAsync
// minted — is ErrDuplicate and proposes nothing.
func TestCommittedIDIsDuplicateAfterRestart(t *testing.T) {
	dir := t.TempDir()
	net1 := netsim.New(netsim.Config{})
	t.Cleanup(net1.Close)
	s, err := NewShard(net1, durableShardCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	first := s.SubmitBatch([]Tx{
		{ID: "client-chosen", Kind: TxPut, Key: "chosen", Value: []byte("first")},
		{Kind: TxPut, Key: "minted", Value: []byte("first")},
	})
	for i, res := range first {
		if res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	waitHeights(t, s)
	height := s.Peers()[0].Height()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	net2 := netsim.New(netsim.Config{})
	t.Cleanup(net2.Close)
	s2, err := NewShard(net2, durableShardCfg(dir))
	if err != nil {
		t.Fatalf("reopening shard from %s: %v", dir, err)
	}
	defer s2.Close()
	if h := s2.Peers()[0].Height(); h != height {
		t.Fatalf("recovered height %d, want %d", h, height)
	}
	wantDuplicates(t, s2,
		Tx{ID: first[0].TxID, Kind: TxPut, Key: "chosen", Value: []byte("again")},
		Tx{ID: first[1].TxID, Kind: TxPut, Key: "minted", Value: []byte("again")},
	)
	for _, key := range []string{"chosen", "minted"} {
		if v, err := s2.Peers()[0].Get(key); err != nil || string(v) != "first" {
			t.Fatalf("%s = %q, %v after the retries", key, v, err)
		}
	}
}

// waitHeights waits until every peer in the shard is at the same height.
func waitHeights(t *testing.T, s *Shard) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		h := s.Peers()[0].Height()
		same := true
		for _, p := range s.Peers() {
			if p.Height() != h {
				same = false
			}
		}
		if same {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("peers did not converge on one height")
}

// TestOldFormatDirectoryRefused lays a data directory out by hand the way
// binaries before the FORMAT stamp wrote it — JSON journal records
// holding a pbB1 frame of JSON transactions, a v1 snapshot, no stamp —
// and checks NewShard refuses it by name and leaves every byte alone.
// Opening it would replay frames this binary's decoder rejects: an empty
// chain, silently.
func TestOldFormatDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	frame := func(payload string) []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(payload), crc32.MakeTable(crc32.Castagnoli)))
		return append(hdr[:], payload...)
	}
	// op is base64 of `pbB1["<base64 of {"id":"s0-tx-1","kind":1,"key":"k","value":"dg=="}>"]`.
	const rec = `{"k":"ex","d":[1,2,3],"b":[{"client":"chain/s0/0a1b2c","seq":1,` +
		`"op":"cGJCMVsiZXlKcFpDSTZJbk13TFhSNExURWlMQ0pyYVc1a0lqb3hMQ0pyWlhraU9pSnJJaXdpZG1Gc2RXVWlPaUprWnowOUluMD0iXQ=="}]}`
	files := map[string][]byte{
		"s0/peer0/seg-0000000000000001.wal": frame(rec),
		"s0/peer1/seg-0000000000000001.wal": frame(rec),
		"s0/peer1/snap-0000000000000001.snap": append(frame("\x02\x00\x00\x00\x00\x00\x00\x00"),
			frame(`{"format":"prever/pbft/snap/v1","view":0,"execSeq":0,"stable":0}`)...),
	}
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	net := netsim.New(netsim.Config{})
	defer net.Close()
	_, err := NewShard(net, durableShardCfg(dir))
	if !errors.Is(err, wal.ErrFormat) {
		t.Fatalf("NewShard on a v1 directory: %v, want wal.ErrFormat", err)
	}
	for _, want := range []string{"unstamped", `reads "prever/pbft/data/v4"`, filepath.Join(dir, "s0", "peer0")} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}

	found := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		want, ok := files[filepath.ToSlash(rel)]
		if !ok {
			t.Errorf("refusal created %s", rel)
			return nil
		}
		found++
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("refusal changed %s (%v)", rel, err)
		}
		return nil
	})
	if err != nil || found != len(files) {
		t.Fatalf("walk: %v; %d of %d files left", err, found, len(files))
	}
}
