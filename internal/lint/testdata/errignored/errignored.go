// Package errignored is the analyzer fixture for errignored: mutation
// entry points (Submit*, Close, Put, ...) whose error result is silently
// discarded. The type checker gates the name match: same-named methods
// without an error in their results never trigger.
package errignored

import "errors"

type engine struct{}

func (engine) Submit(v int) (int, error)    { return v, nil }
func (engine) SubmitBatch(vs []int) error   { return nil }
func (engine) Close() error                 { return errors.New("dirty") }
func (engine) Put(k string, v []byte) error { return nil }

type counter struct{}

// Same names, no error results: the void lookalikes below stay silent.
func (counter) Put(k string, v []byte) int { return 0 }
func (counter) Close()                     {}

func discards(e engine) {
	e.Submit(1)        // want errignored
	e.SubmitBatch(nil) // want errignored
	defer e.Close()    // want errignored
	go e.Put("k", nil) // want errignored
}

func handles(e engine) error {
	if _, err := e.Submit(1); err != nil {
		return err
	}
	_ = e.SubmitBatch(nil) // explicit discard is accepted
	return e.Close()
}

func voidLookalikes(c counter) {
	c.Put("k", nil)
	c.Close()
}

func suppressedAbove(e engine) {
	//lint:ignore errignored fixture: error cannot occur here
	e.Close()
}

func suppressedSameLine(e engine) {
	e.Close() //lint:ignore errignored fixture: same-line directive
}

// consensus mirrors the retry/failover surface of the paxos and pbft
// replicas and clients.
type consensus struct{}

func (consensus) Propose(v []byte) (uint64, error) { return 0, nil }
func (consensus) BecomeLeader() error              { return nil }
func (consensus) Crash() error                     { return nil }
func (consensus) Restart() error                   { return nil }

// sim has same-named methods without error results: never flagged.
type sim struct{}

func (sim) Propose(v []byte) uint64 { return 0 }
func (sim) Crash()                  {}
func (sim) Restart()                {}

func discardsConsensus(c consensus) {
	c.Propose(nil)   // want errignored
	c.BecomeLeader() // want errignored
	c.Crash()        // want errignored
	go c.Restart()   // want errignored
}

func handlesConsensus(c consensus) error {
	if _, err := c.Propose(nil); err != nil {
		return err
	}
	if err := c.BecomeLeader(); err != nil {
		return err
	}
	_ = c.Crash() // explicit discard is accepted
	return c.Restart()
}

func consensusVoidLookalikes(s sim) {
	s.Propose(nil)
	s.Crash()
	s.Restart()
}

// store mirrors the durability surface: snapshots, restores, WAL
// appends, and journal saves whose errors mean "not actually on disk".
type store struct{}

func (store) Snapshot() ([]byte, error)   { return nil, nil }
func (store) Restore(data []byte) error   { return nil }
func (store) AppendSync(rec []byte) error { return nil }
func (store) CloseStorage() error         { return nil }
func (store) SaveFile(path string) error  { return nil }

// cache has same-named methods without error results: never flagged.
type cache struct{}

func (cache) Snapshot() []byte    { return nil }
func (cache) Restore(data []byte) {}

func discardsDurability(s store) {
	s.Snapshot()           // want errignored
	s.Restore(nil)         // want errignored
	s.AppendSync(nil)      // want errignored
	defer s.CloseStorage() // want errignored
	go s.SaveFile("p")     // want errignored
}

func handlesDurability(s store) error {
	if _, err := s.Snapshot(); err != nil {
		return err
	}
	if err := s.Restore(nil); err != nil {
		return err
	}
	_ = s.AppendSync(nil) // explicit discard is accepted
	return s.CloseStorage()
}

func durabilityVoidLookalikes(c cache) {
	c.Snapshot()
	c.Restore(nil)
}

// verifier mirrors the zk batch-verification surface: per-proof verdicts
// plus an operational error, both of which matter.
type verifier struct{}

func (verifier) VerifyOpeningBatch(n int) ([]error, error) { return nil, nil }
func (verifier) VerifyBoundBatch(n int) ([]error, error)   { return nil, nil }

// gauge has a same-named method without an error result: never flagged.
type gauge struct{}

func (gauge) VerifyOpeningBatch(n int) int { return n }

func discardsBatchVerdicts(v verifier) {
	v.VerifyOpeningBatch(4)  // want errignored
	go v.VerifyBoundBatch(4) // want errignored
}

func handlesBatchVerdicts(v verifier) error {
	if _, err := v.VerifyOpeningBatch(4); err != nil {
		return err
	}
	_, _ = v.VerifyBoundBatch(4) // explicit discard is accepted
	return nil
}

func batchVoidLookalikes(g gauge) {
	g.VerifyOpeningBatch(4)
}

// The decoders at the trust boundaries: the trailing ok or error is the
// verdict on everything else they return.

func DecodeBatch(v []byte) ([][]byte, bool) { return nil, false }
func decodeTx(b []byte) (int, error)        { return 0, nil }

type decoder struct{}

func (decoder) Decode(v any) error { return nil }

// decodeWidth has a decoder's name but no verdict to drop.
func decodeWidth(b []byte) int { return len(b) }

func dropsDecoderVerdict(d decoder, v []byte) int {
	ops, _ := DecodeBatch(v) // want errignored
	tx, _ := decodeTx(v)     // want errignored
	_ = d.Decode(&tx)        // want errignored
	DecodeBatch(v)           // want errignored
	var n int
	n, _ = decodeTx(v) // want errignored
	return len(ops) + tx + n
}

func keepsDecoderVerdict(d decoder, v []byte) (int, error) {
	ops, ok := DecodeBatch(v)
	if !ok {
		return 0, errors.New("not a batch")
	}
	if _, ok := DecodeBatch(v); !ok { // dropping the value is fine
		return 0, nil
	}
	if err := d.Decode(&ops); err != nil {
		return 0, err
	}
	_ = decodeWidth(v)
	tx, err := decodeTx(v)
	return tx + len(ops), err
}

func suppressedDecoder(v []byte) int {
	//lint:ignore errignored fixture: v was produced by EncodeBatch two lines up
	ops, _ := DecodeBatch(v)
	return len(ops)
}
