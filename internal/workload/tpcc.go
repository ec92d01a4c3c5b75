package workload

import (
	"fmt"
	"math/rand"
)

// TxType enumerates TPC-C-lite transaction types.
type TxType uint8

// TPC-C-lite transaction types (the New-Order / Payment subset, which
// dominates the official mix and exercises the update path PReVer cares
// about).
const (
	TxNewOrder TxType = iota + 1
	TxPayment
	TxOrderStatus
)

// String names the transaction type.
func (t TxType) String() string {
	switch t {
	case TxNewOrder:
		return "NEW_ORDER"
	case TxPayment:
		return "PAYMENT"
	case TxOrderStatus:
		return "ORDER_STATUS"
	default:
		return fmt.Sprintf("TxType(%d)", uint8(t))
	}
}

// OrderLine is one item of a new order.
type OrderLine struct {
	Item     int
	Quantity int
}

// TPCCTx is one generated transaction.
type TPCCTx struct {
	Type      TxType
	Warehouse int
	District  int
	Customer  int
	Amount    int64       // Payment: cents
	Lines     []OrderLine // NewOrder
}

// TPCCConfig sizes the generator.
type TPCCConfig struct {
	Warehouses int // default 1
	Districts  int // per warehouse, default 10
	Customers  int // per district, default 3000
	Items      int // default 1000
	Seed       int64
}

// TPCC generates a TPC-C-lite transaction stream with the standard-ish
// mix: 45% New-Order, 43% Payment, 12% Order-Status.
type TPCC struct {
	cfg TPCCConfig
	rng *rand.Rand
}

// NewTPCC builds a generator.
func NewTPCC(cfg TPCCConfig) (*TPCC, error) {
	if cfg.Warehouses <= 0 {
		cfg.Warehouses = 1
	}
	if cfg.Districts <= 0 {
		cfg.Districts = 10
	}
	if cfg.Customers <= 0 {
		cfg.Customers = 3000
	}
	if cfg.Items <= 0 {
		cfg.Items = 1000
	}
	return &TPCC{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Next generates one transaction.
func (t *TPCC) Next() TPCCTx {
	tx := TPCCTx{
		Warehouse: t.rng.Intn(t.cfg.Warehouses),
		District:  t.rng.Intn(t.cfg.Districts),
		Customer:  t.rng.Intn(t.cfg.Customers),
	}
	p := t.rng.Float64()
	switch {
	case p < 0.45:
		tx.Type = TxNewOrder
		n := 5 + t.rng.Intn(11) // 5..15 lines, per spec
		tx.Lines = make([]OrderLine, n)
		for i := range tx.Lines {
			tx.Lines[i] = OrderLine{Item: t.rng.Intn(t.cfg.Items), Quantity: 1 + t.rng.Intn(10)}
		}
	case p < 0.88:
		tx.Type = TxPayment
		tx.Amount = int64(100 + t.rng.Intn(500000)) // $1.00 .. $5000.00
	default:
		tx.Type = TxOrderStatus
	}
	return tx
}
