package sqlclient

import (
	"errors"
	"fmt"
	"testing"

	"mmdb"
	"mmdb/internal/fault"
)

// TestRetryableErrorTaxonomy: the retry marker must satisfy
// fault.ErrTransient (so fault.Retry retries it) while the original
// typed error stays reachable through errors.Is/As — a caller whose
// budget ran out still sees mmdb.ErrNotPrimary with its epoch and hint.
func TestRetryableErrorTaxonomy(t *testing.T) {
	orig := &mmdb.NotPrimaryError{Epoch: 4, Hint: "r0"}
	err := retryable(orig)
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatal("retryable error does not match fault.ErrTransient")
	}
	if !errors.Is(err, mmdb.ErrNotPrimary) {
		t.Fatal("retryable error lost mmdb.ErrNotPrimary")
	}
	var np *mmdb.NotPrimaryError
	if !errors.As(err, &np) || np.Epoch != 4 || np.Hint != "r0" {
		t.Fatalf("typed NotPrimaryError unreachable through the marker: %v", err)
	}
	if got := unwrapRetryable(err); got != error(orig) {
		t.Fatalf("unwrapRetryable returned %v, want the original", got)
	}
	// A terminal error passes through unwrapRetryable untouched.
	plain := fmt.Errorf("boom")
	if got := unwrapRetryable(plain); got != plain {
		t.Fatalf("unwrapRetryable mangled a plain error: %v", got)
	}
}

// TestInDoubtErrorSurface: an in-doubt write is terminal — it must NOT
// look transient to the retry loop — and unwraps to the underlying
// connection failure.
func TestInDoubtErrorSurface(t *testing.T) {
	cause := fmt.Errorf("connection reset")
	err := error(&InDoubtError{SQL: "INSERT INTO t VALUES (1)", Err: cause})
	if errors.Is(err, fault.ErrTransient) {
		t.Fatal("in-doubt write looks retryable")
	}
	if !errors.Is(err, cause) {
		t.Fatal("in-doubt error lost its cause")
	}
	var id *InDoubtError
	if !errors.As(err, &id) || id.SQL != "INSERT INTO t VALUES (1)" {
		t.Fatalf("in-doubt statement not recoverable: %v", err)
	}
}
