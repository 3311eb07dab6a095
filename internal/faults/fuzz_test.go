package faults

import (
	"testing"
	"time"
)

// FuzzFaultPlan drives Decide with arbitrary plan parameters and clock
// values: no input may panic, stats must stay consistent with decisions,
// and mutually exclusive outcomes (down vs. drop) must never co-occur.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), 0.1, int64(30_000_000), 0.05, int64(90_000_000_000), int64(30_000_000_000), 0.1, 0.1, 1, 0.5, int64(0))
	f.Add(int64(-7), 1.5, int64(-5), -0.5, int64(0), int64(0), 2.0, 2.0, 3, 9.0, int64(3_600_000_000_000))
	f.Add(int64(0), 0.0, int64(0), 0.0, int64(1), int64(1), 0.0, 0.0, 0, 0.0, int64(-1))
	f.Fuzz(func(t *testing.T, seed int64, loss float64, jitter int64, spike float64,
		flapPeriod, flapDown int64, trunc, corrupt float64, byz int, byzRate float64, at int64) {
		s := NewState(Plan{
			Seed:          seed,
			LossRate:      loss,
			JitterMax:     time.Duration(jitter),
			SpikeRate:     spike,
			SpikeLatency:  200 * time.Millisecond,
			FlapPeriod:    time.Duration(flapPeriod),
			FlapDown:      time.Duration(flapDown),
			TruncateRate:  trunc,
			CorruptRate:   corrupt,
			Byzantine:     Mode(byz % 4),
			ByzantineRate: byzRate,
		})
		var timeouts, drops int
		for i := 0; i < 64; i++ {
			d := s.Decide(time.Duration(at) + time.Duration(i)*time.Second)
			if d.Down && d.Drop {
				t.Fatal("down and drop in one decision")
			}
			if d.Down {
				timeouts++
			}
			if d.Drop {
				drops++
			}
			if (d.Down || d.Drop) && (d.Truncate || d.Corrupt || d.Byzantine != ByzNone || d.ExtraLatency != 0) {
				t.Fatalf("undelivered exchange carries delivery faults: %+v", d)
			}
			if d.ExtraLatency < 0 {
				t.Fatalf("negative extra latency: %v", d.ExtraLatency)
			}
		}
		st := s.Stats()
		if st.Attempts != 64 || st.TimedOut != timeouts || st.Dropped != drops {
			t.Fatalf("stats %+v inconsistent with decisions (timeouts=%d drops=%d)", st, timeouts, drops)
		}
	})
}
