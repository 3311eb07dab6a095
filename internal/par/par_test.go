package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestEachErrors(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		var calls atomic.Int64
		err := Each(5, workers, func(i int) error {
			calls.Add(1)
			if i%2 == 1 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		// Every item runs, and the errors come back in index order.
		if calls.Load() != 5 || err == nil || err.Error() != "item 1\nitem 3" {
			t.Errorf("workers=%d: %d calls, err %q", workers, calls.Load(), err)
		}
		if err := Each(4, workers, func(int) error { return nil }); err != nil {
			t.Errorf("workers=%d: err %v with no failures", workers, err)
		}
	}
	if err := Each(0, 4, func(int) error { return errors.New("called") }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}
