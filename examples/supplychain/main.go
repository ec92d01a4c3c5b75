// Supply chain management (paper §2.4, Figure 1d): multiple mutually
// distrustful enterprises process updates where the data, the updates AND
// some constraints are private.
//
// This example composes three PReVer pieces:
//
//  1. A permissioned blockchain shared by all enterprises anchors
//     cross-enterprise state (Research Challenge 4);
//  2. A PRIVATE DATA COLLECTION keeps the manufacturer's process secrets
//     visible only to the manufacturer and its certifying partner, with
//     only a hash on the public chain (Fabric-style);
//  3. The MPC federation verifies a cross-enterprise SLA — "total monthly
//     defective units across all suppliers stay under 100" — without any
//     supplier revealing its own defect count (Research Challenge 2).
//
// Run with: go run ./examples/supplychain
package main

import (
	"fmt"
	"log"
	"time"

	"prever"
	"prever/internal/chain"
	"prever/internal/netsim"
)

func main() {
	// --- the shared permissioned chain ---
	net := prever.NewNetwork(netsim.Config{})
	defer net.Close()
	shard, err := prever.NewShard(net, chain.ShardConfig{
		Name: "supply",
		F:    1,
		Collections: map[string][]string{
			// The manufacturing recipe is shared only between the
			// manufacturer's peer and the certifier's peer.
			"mfg-secrets": {"supply/peer0", "supply/peer1"},
		},
		Timeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Public cross-enterprise updates: shipment records everyone sees.
	fmt.Println("— public shipment records (ordered by PBFT, visible to all peers) —")
	for i, shipment := range []string{"steel:100t", "chips:5000u", "gears:800u"} {
		if res := <-shard.SubmitAsync(chain.Tx{
			Kind: chain.TxPut, Key: fmt.Sprintf("shipment/%d", i), Value: []byte(shipment),
		}); res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("  shipment/%d = %s committed\n", i, shipment)
	}

	// Private internal update: the manufacturer's process parameters.
	fmt.Println("\n— private collection: manufacturer's process secret —")
	secret := []byte("anneal@1200C;quench=oil;tolerance=0.01mm")
	if res := <-shard.SubmitPrivate("mfg-secrets", "process/v7", secret); res.Err != nil {
		log.Fatal(res.Err)
	}
	waitHeight(shard, 4)
	peers := shard.Peers()
	if v, err := peers[0].GetPrivate("mfg-secrets", "process/v7"); err == nil {
		fmt.Printf("  member peer reads the secret: %q\n", v)
	} else {
		log.Fatal(err)
	}
	if _, err := peers[3].GetPrivate("mfg-secrets", "process/v7"); err != nil {
		fmt.Printf("  non-member peer is refused: %v\n", err)
	}
	if h, err := peers[3].Get("hash/mfg-secrets/process/v7"); err == nil {
		fmt.Printf("  but every peer can audit the on-chain hash: %x...\n", h[:8])
	}

	// Cross-enterprise SLA verified without disclosure.
	fmt.Println("\n— private SLA: total monthly defects across suppliers <= 100 —")
	suppliers := []string{"steelco", "chipco", "gearco"}
	slaSetup, err := prever.NewMPCFederationSetup("sla-defects", 100, 0 /* cumulative */, suppliers, 512)
	if err != nil {
		log.Fatal(err)
	}
	sla := slaSetup.Federation
	month := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	batches := []struct {
		supplier string
		defects  int64
	}{
		{"steelco", 30}, {"chipco", 45}, {"gearco", 20}, {"steelco", 10},
	}
	for i, b := range batches {
		r, err := sla.SubmitTask(prever.TaskSubmission{
			ID: fmt.Sprintf("defects-%d", i), Worker: "line-1",
			Platform: b.supplier, Hours: b.defects, TS: month,
		})
		if err != nil {
			log.Fatal(err)
		}
		status := "within SLA"
		if !r.Accepted {
			status = "SLA BREACH — batch rejected"
		}
		fmt.Printf("  %s reports %d defective units: %s\n", b.supplier, b.defects, status)
	}
	fmt.Println("  (each supplier's count stayed private; only the verdict was shared)")

	// Audit the chain across every enterprise's peer.
	fmt.Println("\n— integrity: each enterprise audits its own copy of the chain —")
	for _, p := range peers {
		if bad, err := chain.VerifyBlocks(p.Blocks()); bad != -1 {
			log.Fatalf("peer %s: block %d corrupt: %v", p.ID(), bad, err)
		}
	}
	fmt.Printf("  all %d peers verified %d blocks clean\n", len(peers), peers[0].Height())
}

func waitHeight(s *chain.Shard, h int) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, p := range s.Peers() {
			if p.Height() < h {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
