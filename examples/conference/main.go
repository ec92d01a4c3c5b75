// In-person conference participation (paper §2.2, Figure 1b): the list of
// in-person attendees is PUBLIC, but a registration rests on a PRIVATE
// vaccination record, and the admission constraint (a valid certificate)
// is public.
//
// PReVer's Research-Challenge-3 engine handles this with two primitives:
//
//   - Blind-signed single-use credentials: the health authority signs a
//     certificate without seeing its serial, so the conference can verify
//     "this person holds a valid certificate" without EITHER party being
//     able to link the credential to the issuance (the vaccination record
//     itself never leaves the attendee).
//   - Two-server PIR: anyone can check whether a given person is attending
//     without the servers learning who was looked up.
//
// Run with: go run ./examples/conference
package main

import (
	"fmt"
	"log"

	"prever"
)

func main() {
	setup, err := prever.NewPublicPIRSetup(
		"edbt-2022", "edbt-2022-vaccination", 128, 1024)
	if err != nil {
		log.Fatal(err)
	}
	conference, healthAuthority := setup.Manager, setup.Authority

	fmt.Println("public constraint: in-person registration requires a valid, single-use vaccination credential")

	// Each attendee obtains a blind credential and registers.
	attendees := []string{"alice", "bob", "carol", "dave"}
	credentials := make(map[string]prever.Token)
	for _, name := range attendees {
		cred, err := issueCredential(healthAuthority, name)
		if err != nil {
			log.Fatal(err)
		}
		credentials[name] = cred
		r, err := conference.SubmitWithCredential(
			prever.PublicEntry{Key: name, Data: "in-person"}, cred)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: registered=%v\n", name, r.Accepted)
	}

	// Mallory replays Alice's already-spent credential: rejected.
	r, err := conference.SubmitWithCredential(
		prever.PublicEntry{Key: "mallory", Data: "in-person"}, credentials["alice"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mallory (replayed credential): registered=%v — %s\n", r.Accepted, r.Reason)

	// Private attendance check: neither PIR server learns WHOM we looked
	// up, even though the list itself is public.
	entry, err := conference.PrivateLookup("carol")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprivate lookup: %s is attending (%s) — servers saw only random query vectors\n",
		entry.Key, entry.Data)

	// The public directory and the integrity layer are open to everyone.
	fmt.Printf("public attendee directory: %v\n", conference.Directory())
	fmt.Printf("replica consistency: %v; registration journal: %d entries, audit clean = %v\n",
		conference.AuditReplicas(),
		conference.Ledger().Size(),
		prever.AuditLedger(conference.Ledger().Export(), conference.Ledger().Digest()).Clean())
}

// issueCredential runs the blind issuance: the authority verifies the
// holder's (off-protocol) vaccination record, then signs a serial it
// cannot see.
func issueCredential(authority *prever.TokenAuthority, holder string) (prever.Token, error) {
	wallet, err := prever.NewWallet(authority.PublicKey(), "edbt-2022-vaccination", 1)
	if err != nil {
		return prever.Token{}, err
	}
	sigs, err := authority.IssueBudget(holder, "edbt-2022-vaccination", wallet.BlindedRequests(), 1)
	if err != nil {
		return prever.Token{}, err
	}
	if err := wallet.Finalize(sigs); err != nil {
		return prever.Token{}, err
	}
	return wallet.Next()
}
