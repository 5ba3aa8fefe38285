package session

import (
	"fmt"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// cleanChannel is a fault that never fires: it measures the cost of the
// faulted broadcast path itself (interface dispatch + command clock)
// against the nil fast path.
type cleanChannel struct{}

func (cleanChannel) CommandTruncated(int) bool                          { return false }
func (cleanChannel) TagPowered(int, int) bool                           { return true }
func (cleanChannel) CorruptUplink(_ int, b gen2.Bits) (gen2.Bits, bool) { return b, false }

// BenchmarkInventoryRound pins the per-round cost of the inventory hot
// path. A nil fault and cleanChannel share one medium and one population
// index; the cleanChannel variants add only the fault seam's per-command
// power pass. The N=6 cases price a small population, where the index
// must cost nothing over a plain loop; the N=1000 cases are the dense
// populations the index exists for, at fixed Q (Schoute re-sizing between
// sweeps) and floating Q (the recovery stack's Annex-D QueryAdjusts).
func BenchmarkInventoryRound(b *testing.B) {
	bench := func(b *testing.B, n int, fault ChannelFault, rec *RecoveryPolicy) {
		tags := make([]*gen2.TagLogic, n)
		for i := range tags {
			tg, err := gen2.NewTagLogic([]byte{0xBE, byte(i), 0x0C, 0x04 + byte(i>>8)}, rng.New(uint64(900+i)))
			if err != nil {
				b.Fatal(err)
			}
			tags[i] = tg
		}
		ic := NewInventoryController(gen2.S0)
		if n > 6 {
			// The default 4096-command budget stops fixed Q short of
			// reading all 1000 tags.
			ic.MaxCommands = 12*n + 256
		}
		ic.Fault = fault
		ic.Recovery = rec
		r := rng.New(5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tg := range tags {
				tg.PowerReset()
			}
			if _, err := ic.RunRound(tags, r.Split(fmt.Sprintf("round-%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("clean-nil-fault", func(b *testing.B) { bench(b, 6, nil, nil) })
	b.Run("clean-channel-fault", func(b *testing.B) { bench(b, 6, cleanChannel{}, nil) })
	b.Run("clean-channel-recovery", func(b *testing.B) { bench(b, 6, cleanChannel{}, DefaultRecovery()) })
	b.Run("n1000-nil-fault-fixed-q", func(b *testing.B) { bench(b, 1000, nil, nil) })
	b.Run("n1000-nil-fault-floating-q", func(b *testing.B) { bench(b, 1000, nil, DefaultRecovery()) })
	b.Run("n1000-clean-channel-fixed-q", func(b *testing.B) { bench(b, 1000, cleanChannel{}, nil) })
	b.Run("n1000-clean-channel-floating-q", func(b *testing.B) { bench(b, 1000, cleanChannel{}, DefaultRecovery()) })
}
