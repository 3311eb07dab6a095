package zone

import (
	"testing"
	"unsafe"
)

// TestZoneLayout pins the size of a zone and of one owner of its table. The
// universe keeps up to 8,192 per-domain zones (universe.Options.ZoneCacheCap)
// of two owners each, the apex and www: a failing pin prints what the growth
// costs there.
func TestZoneLayout(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, want  uintptr
		count       int
		countedWhat string
	}{
		{"Zone", unsafe.Sizeof(Zone{}), 96, 8192, "cached zones"},
		{"ownerEntry", unsafe.Sizeof(ownerEntry{}), 48, 2 * 8192, "owners of cached zones"},
	} {
		if c.size != c.want {
			grow := (float64(c.size) - float64(c.want)) * float64(c.count) / (1 << 20)
			t.Errorf("%s is %d bytes, pinned at %d: %+.1f MB at %d %s",
				c.name, c.size, c.want, grow, c.count, c.countedWhat)
		}
	}
}
