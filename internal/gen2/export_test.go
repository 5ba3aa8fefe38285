package gen2

import "ivn/internal/rng"

// TagSnapshot is a tag's whole protocol state, random stream included,
// for the differential tests outside the package.
type TagSnapshot struct {
	State       TagState
	Session     Session
	Q           byte
	Slot        uint32
	RN16        uint16
	Handle      uint16
	SL          bool
	Inventoried [4]bool
	Miller      int
	Random      rng.Rand
}

// Snapshot returns t's protocol state.
func (t *TagLogic) Snapshot() TagSnapshot {
	return TagSnapshot{
		State: t.state, Session: t.session, Q: t.q, Slot: t.slot, RN16: t.rn16, Handle: t.handle,
		SL: t.sl, Inventoried: t.inventoried, Miller: t.miller, Random: *t.random,
	}
}

// Snapshot returns tag i's protocol state as the index keeps it: a filed
// Arbitrate tag's slot counter is read at the current epoch, without
// writing it back.
func (p *Population) Snapshot(i int) TagSnapshot {
	s := p.tags[i].Snapshot()
	if p.valid && p.member[i] && s.State == StateArbitrate && s.Slot != 0 {
		s.Slot = uint32(p.due[i] - p.epoch)
	}
	return s
}
