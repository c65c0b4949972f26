package core

import (
	"os"
	"testing"

	"adoc/internal/testutil"
)

// TestMain runs the suite under the goroutine-leak checker: every engine,
// pipe and pipeline these tests start must tear down completely, or the
// package fails even though each test passed.
func TestMain(m *testing.M) { os.Exit(testutil.RunMain(m)) }
