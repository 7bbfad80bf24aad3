package kvdirect

import (
	"fmt"
	"testing"
)

// TestNewClusterClosesStoresOnError is the regression test for the
// constructor leak: a mid-loop failure used to abandon the stores
// already built without closing them.
func TestNewClusterClosesStoresOnError(t *testing.T) {
	orig := newClusterStore
	defer func() { newClusterStore = orig }()
	var built []*Store
	calls := 0
	newClusterStore = func(cfg Config) (*Store, error) {
		calls++
		if calls == 3 {
			return nil, fmt.Errorf("injected construction failure")
		}
		s, err := New(cfg)
		if err == nil {
			built = append(built, s)
		}
		return s, err
	}
	if _, err := NewCluster(4, Config{MemoryBytes: 4 << 20}); err == nil {
		t.Fatal("NewCluster succeeded despite injected failure")
	}
	if len(built) != 2 {
		t.Fatalf("expected 2 stores built before the failure, got %d", len(built))
	}
	for i, s := range built {
		if !s.Closed() {
			t.Errorf("store %d leaked: not closed after constructor error", i)
		}
	}
}
