package gencache

import (
	"maps"
	"testing"
)

// FuzzGencache runs random Put/Get/Peek/Delete sequences against a plain
// map. The cache never holds more than 2*span entries; a present key holds
// its last Put; a key put, or hit by Get, within the last span inserts is
// present; and Peek never moves an entry between generations.
func FuzzGencache(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 2, 3, 3})
	f.Add(uint8(4), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 1, 0, 0, 5, 0, 6, 0, 7, 0, 8, 2, 0, 1, 1})
	f.Add(uint8(3), []byte{0, 9, 3, 9, 1, 9, 0, 9, 0, 10, 0, 11, 0, 12, 2, 9})
	f.Fuzz(func(t *testing.T, spanByte uint8, ops []byte) {
		const keys = 32
		span := int(spanByte%8) + 1
		c := New[int, int](span)
		model := map[int]int{}   // last Put of every key not deleted since
		touched := map[int]int{} // insert count at a key's last Put or Get hit
		inserts := 0
		for i := 0; i+1 < len(ops); i += 2 {
			k := int(ops[i+1]) % keys
			switch ops[i] % 4 {
			case 0:
				inserts++
				c.Put(k, i)
				model[k], touched[k] = i, inserts
			case 1:
				v, ok := c.Get(k)
				if ok {
					// A hit in the previous generation is a Put.
					inserts++
					touched[k] = inserts
				}
				if want, had := model[k]; ok && (!had || v != want) {
					t.Fatalf("Get(%d) = %d, last Put %d (held %t)", k, v, want, had)
				}
			case 2:
				cur, prev := maps.Clone(c.cur), maps.Clone(c.prev)
				c.Peek(k)
				if !maps.Equal(cur, c.cur) || !maps.Equal(prev, c.prev) {
					t.Fatalf("Peek(%d) moved an entry", k)
				}
			case 3:
				c.Delete(k)
				delete(model, k)
				delete(touched, k)
			}
			if n := c.Len(); n > 2*span {
				t.Fatalf("holds %d entries, span %d", n, span)
			}
			held := 0
			for k := 0; k < keys; k++ {
				v, ok := c.Peek(k)
				want, had := model[k]
				switch {
				case ok && (!had || v != want):
					t.Fatalf("key %d holds %d, last Put %d (held %t)", k, v, want, had)
				case !ok && had && inserts-touched[k] <= span:
					t.Fatalf("key %d dropped %d inserts after its last touch, span %d", k, inserts-touched[k], span)
				}
				if ok {
					held++
				}
			}
			if held != c.Len() {
				t.Fatalf("Len() = %d, %d keys held", c.Len(), held)
			}
		}
	})
}
