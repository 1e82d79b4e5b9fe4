package fanout

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRun: at GOMAXPROCS 2, each row's worker count resolves to want, and
// Run calls fn once for every index — or, when an index fails, once for
// every index up to the last failing one and never past it, returning the
// lowest failing index's error. fast fails at once and slow only after fast
// has, so in a row with both a worker claims slow and waits while the other
// fails fast first: the lower index's error must still win. Index 0 never
// fails, so 0 means none.
func TestRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct{ n, workers, want, fast, slow int }{
		{n: 0, workers: -1, want: 0}, {n: 0, workers: 0, want: 0}, {n: 0, workers: 1, want: 0},
		{n: 0, workers: 2, want: 0}, {n: 0, workers: 3, want: 0},
		{n: 1, workers: -1, want: 1}, {n: 1, workers: 0, want: 1}, {n: 1, workers: 1, want: 1},
		{n: 1, workers: 2, want: 1}, {n: 1, workers: 4, want: 1},
		{n: 7, workers: -1, want: 2}, {n: 7, workers: 0, want: 2}, {n: 7, workers: 1, want: 1},
		{n: 7, workers: 2, want: 2}, {n: 7, workers: 7, want: 7}, {n: 7, workers: 10, want: 7},
		// The default is the number of Ps, not of CPUs.
		{n: 8, workers: 0, want: 2}, {n: 8, workers: 5, want: 5}, {n: 8, workers: -3, want: 2},
		// A failure stops the claims.
		{n: 7, workers: 1, want: 1, fast: 4},
		{n: 7, workers: 2, want: 2, fast: 4, slow: 1},
	} {
		name := fmt.Sprintf("n=%d/workers=%d/fast=%d/slow=%d", tc.n, tc.workers, tc.fast, tc.slow)
		if got := count(tc.n, tc.workers); got != tc.want {
			t.Errorf("%s: %d workers, want %d", name, got, tc.want)
		}
		ran := make([]atomic.Int32, tc.n)
		fastFailed := make(chan struct{})
		err := Run(tc.n, tc.workers, func(i int) error {
			ran[i].Add(1)
			if i == 0 || i != tc.fast && i != tc.slow {
				return nil
			}
			if i == tc.fast {
				close(fastFailed)
			} else {
				<-fastFailed
			}
			return fmt.Errorf("index %d", i)
		})
		last, want := tc.n-1, "<nil>"
		if tc.fast > 0 {
			last, want = tc.fast, fmt.Sprintf("index %d", tc.fast)
		}
		if tc.slow > 0 {
			want = fmt.Sprintf("index %d", tc.slow)
		}
		if got := fmt.Sprint(err); got != want {
			t.Errorf("%s: Run returned %s, want %s", name, got, want)
		}
		for i := range ran {
			want := int32(1)
			if i > last {
				want = 0
			}
			if got := ran[i].Load(); got != want {
				t.Errorf("%s: index %d ran %d times, want %d", name, i, got, want)
			}
		}
	}
}
