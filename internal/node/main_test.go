package node

import (
	"testing"

	"humancomp/internal/faultinject"
)

// TestMain fails the package when a goroutine running this module's code
// outlives its tests, such as the sync loop of a WAL no test closed.
func TestMain(m *testing.M) { faultinject.Main(m) }
