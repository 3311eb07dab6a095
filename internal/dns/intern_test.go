package dns

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestInternTableBound decodes a million distinct names, far more than the
// table has slots, and requires that the live heap they leave behind fit
// the table: one Name per slot, a 16 B string header plus its bytes. A
// table that keeps every name it has seen holds about 108 MB here.
func TestInternTableBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	if testing.Short() {
		t.Skip("a million decodes")
	}
	wire, err := NewQuery(1, MustName("n0000000.bound.test"), TypeA, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	digits := wire[12+2 : 12+9] // the seven digits of the first label
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < 1_000_000; i++ {
		copy(digits, fmt.Sprintf("%07d", i))
		q, err := DecodeQuestion(wire)
		if err != nil {
			t.Fatal(err)
		}
		if i%99_991 == 0 && string(q.Name) != "n"+string(digits)+".bound.test." {
			t.Fatalf("decode %d: %s", i, q.Name)
		}
	}
	// A decoded name here is 20 bytes, which the allocator rounds up to 24;
	// the bound allows 32.
	bound := uint64(len(nameTable)) * (16 + 32)
	growth := int64(liveHeap()) - int64(before)
	t.Logf("live heap grew %d B after 1M distinct names (table bound %d B)", growth, bound)
	if growth > int64(bound) {
		t.Errorf("live heap grew %d B after 1M distinct names, table bound %d B", growth, bound)
	}
}

// TestInternConcurrentDecode decodes overlapping name sets from several
// goroutines, the names chosen so that groups of them share a slot and keep
// replacing one another, and requires every result to equal MakeName of its
// text. Run it with -race: slots are read and written without a lock.
func TestInternConcurrentDecode(t *testing.T) {
	const slots, perSlot, workers, rounds = 4, 6, 4, 200
	bySlot := map[uint64][]string{}
	var texts []string
	for i := 0; len(texts) < slots*perSlot; i++ {
		text := fmt.Sprintf("c%d.collide.test", i)
		k := internSlot([]byte(text))
		if names, ok := bySlot[k]; (ok || len(bySlot) < slots) && len(names) < perSlot {
			bySlot[k] = append(names, text)
			texts = append(texts, text)
		}
	}
	wires := make([][]byte, len(texts))
	for i, text := range texts {
		var err error
		if wires[i], err = NewQuery(uint16(i), MustName(text), TypeA, false).Encode(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w decodes three quarters of the names, starting at its
			// own offset, so every name is shared by three workers.
			for r := 0; r < rounds; r++ {
				for j := 0; j < len(texts)*3/4; j++ {
					i := (w*len(texts)/workers + j + r) % len(texts)
					q, err := DecodeQuestion(wires[i])
					if err != nil {
						errs <- err
						return
					}
					if want := MustName(texts[i]); q.Name != want {
						errs <- fmt.Errorf("decoded %q, want %q", q.Name, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
