// Command prever-demo walks the PReVer Figure-2 pipeline end-to-end on a
// chosen scenario from the paper's Figure 1:
//
//	prever-demo -scenario sustainability   (§2.1: private data+updates, public constraints, RC1)
//	prever-demo -scenario conference       (§2.2: public data, private updates, RC3)
//	prever-demo -scenario crowdworking     (§2.3/§5: federated, token-based, RC2)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"prever"
	"prever/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "crowdworking", "sustainability | conference | crowdworking")
	flag.Parse()
	var err error
	switch *scenario {
	case "sustainability":
		err = sustainability()
	case "conference":
		err = conference()
	case "crowdworking":
		err = crowdworking()
	default:
		fmt.Fprintf(os.Stderr, "prever-demo: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "prever-demo: %v\n", err)
		os.Exit(1)
	}
}

// sustainability: an organization reports private emission figures to an
// UNTRUSTED certifying manager; a public regulation caps yearly emissions;
// the manager verifies homomorphically without ever seeing a number.
func sustainability() error {
	fmt.Println("— Environmental sustainability (Fig 1a, RC1): private data+updates, public constraint —")
	const regulation = "SUM(emissions.tons WHERE emissions.org = u.org) + u.tons <= 1000"
	fmt.Printf("(0) authority publishes regulation: %s\n", regulation)
	setup, err := prever.NewEncryptedManager("iso-cap", regulation, 512)
	if err != nil {
		return err
	}
	reports := []int64{400, 350, 200, 100} // cumulative 950 then 1050
	base := time.Now()
	for i, tons := range reports {
		ct, err := prever.EncryptInt(setup.Key, tons)
		if err != nil {
			return err
		}
		fmt.Printf("(1) acme sends encrypted report #%d (manager sees only ciphertext)\n", i+1)
		r, err := setup.Manager.SubmitEncrypted(prever.EncryptedUpdate{
			ID: fmt.Sprintf("report-%d", i), Producer: "acme", Group: "acme",
			TS:  base.Add(time.Duration(i) * time.Hour),
			Enc: map[string]*prever.HECiphertext{"tons": ct},
		})
		if err != nil {
			return err
		}
		fmt.Printf("(2,3) verified homomorphically: accepted=%v", r.Accepted)
		if !r.Accepted {
			fmt.Printf(" (%s)", r.Reason)
		}
		fmt.Println()
	}
	d := setup.Manager.Ledger().Digest()
	fmt.Printf("(4) integrity: ledger digest size=%d root=%s\n\n", d.Size, d.Root)
	return nil
}

// conference: the attendee list is PUBLIC; the updates (registrations
// backed by vaccination credentials) are private; anyone can check
// attendance without revealing whom they looked up.
func conference() error {
	fmt.Println("— In-person conference participation (Fig 1b, RC3): public data, private updates —")
	setup, err := prever.NewPublicPIRSetup("edbt", "edbt-2022", 128, 1024)
	if err != nil {
		return err
	}
	mgr, health := setup.Manager, setup.Authority
	fmt.Println("(0) public constraint: a valid single-use vaccination credential is required")
	for _, name := range []string{"alice", "bob", "carol"} {
		wallet, err := prever.NewWallet(health.PublicKey(), "edbt-2022", 1)
		if err != nil {
			return err
		}
		sigs, err := health.IssueBudget(name, "edbt-2022", wallet.BlindedRequests(), 1)
		if err != nil {
			return err
		}
		if err := wallet.Finalize(sigs); err != nil {
			return err
		}
		cred, err := wallet.Next()
		if err != nil {
			return err
		}
		r, err := mgr.SubmitWithCredential(prever.PublicEntry{Key: name, Data: "in-person"}, cred)
		if err != nil {
			return err
		}
		fmt.Printf("(1-3) %s registers with a blind credential: accepted=%v\n", name, r.Accepted)
	}
	entry, err := mgr.PrivateLookup("bob")
	if err != nil {
		return err
	}
	fmt.Printf("(PIR) private lookup of 'bob' (servers never learn the name): %s=%s\n", entry.Key, entry.Data)
	fmt.Printf("(4) integrity: replicas consistent=%v, ledger size=%d\n\n", mgr.AuditReplicas(), mgr.Ledger().Size())
	return nil
}

// crowdworking: the Separ instantiation — federated platforms, private
// data and updates, a public FLSA-style regulation enforced via tokens,
// spent-token state on a permissioned blockchain.
func crowdworking() error {
	fmt.Println("— Multi-platform crowdworking (Fig 1c, §5, RC2): Separ on a permissioned chain —")
	sys, err := prever.NewSepar(prever.SeparConfig{
		Platforms: []string{"uber", "lyft"},
		Budget:    40,
		Period:    "2022-W13",
		UseChain:  true,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Println("(0) regulator issues 40 one-hour tokens per worker per week (blind-signed)")
	if err := sys.RegisterWorker("driver-1"); err != nil {
		return err
	}
	start := time.Date(2022, 3, 28, 8, 0, 0, 0, time.UTC)
	tasks := []struct {
		platform string
		hours    int64
	}{
		{"uber", 25}, {"lyft", 15}, {"uber", 1},
	}
	for i, task := range tasks {
		ev := workload.TaskEvent{
			ID: fmt.Sprintf("task-%d", i), Worker: "driver-1",
			Platform: task.platform, Hours: task.hours,
			TS: start.Add(time.Duration(i) * time.Hour),
		}
		r, err := sys.CompleteTask(ev)
		if err != nil {
			return err
		}
		fmt.Printf("(1-3) %dh at %s: accepted=%v", task.hours, task.platform, r.Accepted)
		if !r.Accepted {
			fmt.Printf(" (%s)", r.Reason)
		}
		fmt.Println()
	}
	rem, _ := sys.Remaining("driver-1")
	fmt.Printf("      remaining budget: %d tokens\n", rem)
	if err := sys.AuditChain(); err != nil {
		return fmt.Errorf("chain audit: %w", err)
	}
	fmt.Printf("(4) integrity: %d-peer chain audited clean, height=%d\n\n",
		len(sys.Chain().Peers()), sys.Chain().Peers()[0].Height())
	return nil
}
