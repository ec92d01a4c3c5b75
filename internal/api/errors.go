package api

import (
	"errors"
	"fmt"
	"net/http"

	"prever/internal/chain"
)

// Wire error codes. Each code round-trips: the server derives it from a
// chain sentinel, the client maps it back to the same sentinel, so
// errors.Is(err, chain.ErrPoolFull) works identically against a local
// Shard and a remote server.
const (
	CodePoolFull   = "pool-full"    // 429: mempool admission control; back off and retry
	CodeDuplicate  = "duplicate"    // 409: already committed; treat as success
	CodeShardDown  = "shard-closed" // 503: submission front end shut down
	CodeTxTooLarge = "tx-too-large" // 413: encoded tx exceeds conf.MaxTxBytes
	CodeInvalid    = "invalid"      // 400: request failed validation
	CodeInternal   = "internal"     // 500: anything else
)

// WireError is the JSON body of every non-2xx response.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error so a decoded WireError can be returned as-is.
func (e *WireError) Error() string { return fmt.Sprintf("api: %s: %s", e.Code, e.Message) }

// Unwrap exposes the chain sentinel behind the code, so client-side
// errors.Is checks match the same sentinels as local submissions.
func (e *WireError) Unwrap() error { return sentinelOf(e.Code) }

// codeOf classifies a submission error into a wire code.
func codeOf(err error) string {
	switch {
	case errors.Is(err, chain.ErrPoolFull):
		return CodePoolFull
	case errors.Is(err, chain.ErrDuplicate):
		return CodeDuplicate
	case errors.Is(err, chain.ErrShardClosed):
		return CodeShardDown
	case errors.Is(err, chain.ErrTxTooLarge):
		return CodeTxTooLarge
	case errors.Is(err, chain.ErrTxTooDeep), errors.Is(err, chain.ErrUnmintedID):
		return CodeInvalid
	default:
		return CodeInternal
	}
}

// sentinelOf is the inverse of codeOf (nil for codes with no sentinel).
func sentinelOf(code string) error {
	switch code {
	case CodePoolFull:
		return chain.ErrPoolFull
	case CodeDuplicate:
		return chain.ErrDuplicate
	case CodeShardDown:
		return chain.ErrShardClosed
	case CodeTxTooLarge:
		return chain.ErrTxTooLarge
	default:
		return nil
	}
}

// statusOf maps a wire code to its HTTP status.
func statusOf(code string) int {
	switch code {
	case CodePoolFull:
		return http.StatusTooManyRequests
	case CodeDuplicate:
		return http.StatusConflict
	case CodeShardDown:
		return http.StatusServiceUnavailable
	case CodeTxTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeInvalid:
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
