package gen2_test

import (
	"fmt"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// FuzzIndexedBroadcast decodes arbitrary bytes into a population and a
// command script, runs the script through a Population and, on a twin
// population, through HandleCommand on every powered tag in index order,
// and requires the same replies in the same order and the same full tag
// state after every command.
//
// data[0] sizes the population (1–32 tags). Each later pair of bytes
// (op, a) is one step; op&15 picks the step and op>>4 and a its
// parameters:
//
//	0,1   Query{Sel: a&3, Session: a>>2&3, Target: a>>4&1, Q: op>>4}
//	2–4   QueryRep{Session: a&3}
//	5     a·160+1 QueryReps in session op>>4&3 (reaches the 0x7FFF rollover)
//	6,7   QueryAdjust{Session: a&3, UpDn: Up, Same, Down or an invalid code}
//	8,9   ACK with the RN16 of tag a%n, flipped when op>>4 is odd
//	10    NAK
//	11    ReqRN with the RN16 of tag a%n, flipped when op>>4 is odd
//	12    Select{Action: op>>4&7, Target: a%5, Pointer: a>>3, 2-bit mask}
//	13    the index is Reset, then tag a%n alone handles
//	      Query{Session: op>>4&3, Q: 1} if powered (the next command
//	      meets tags in mixed states)
//	14    brownout of tag a%n: power reset, and unpowered until 15
//	15    power-up of tag a%n
func FuzzIndexedBroadcast(f *testing.F) {
	f.Add([]byte{8, 0x41, 0x00, 0x02, 0x00, 0x08, 0x00, 0x02, 0x01, 0x08, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%32
		ref, idx := twinPopulations(t, n, uint64(data[0]))
		var pop gen2.Population
		pop.Reset(idx)
		powered := make([]bool, n)
		for i := range powered {
			powered[i] = true
		}
		dark := false
		commands := 0
		steps := data[1:]
		for s := 0; s+1 < len(steps) && s < 2*256 && commands < 100_000; s += 2 {
			op, a := steps[s], steps[s+1]
			k := int(a) % n
			rn16 := ref[k].LastRN16()
			if op>>4&1 == 1 {
				rn16 ^= 1
			}
			var c gen2.Command
			repeat := 1
			switch op & 15 {
			case 0, 1:
				c = &gen2.Query{Sel: a & 3, Session: gen2.Session(a >> 2 & 3), Target: a>>4&1 == 1, Q: op >> 4}
			case 2, 3, 4:
				c = &gen2.QueryRep{Session: gen2.Session(a & 3)}
			case 5:
				c = &gen2.QueryRep{Session: gen2.Session(op >> 4 & 3)}
				repeat = int(a)*160 + 1
			case 6, 7:
				c = &gen2.QueryAdjust{Session: gen2.Session(a & 3), UpDn: [4]byte{gen2.QUp, gen2.QSame, gen2.QDown, 0b111}[a>>2&3]}
			case 8, 9:
				c = &gen2.ACK{RN16: rn16}
			case 10:
				c = &gen2.NAK{}
			case 11:
				c = &gen2.ReqRN{RN16: rn16}
			case 12:
				c = &gen2.Select{Target: a % 5, Action: op >> 4 & 7, MemBank: 1, Pointer: a >> 3, Mask: gen2.Bits{a & 1, a >> 1 & 1}}
			case 13:
				pop.Reset(idx)
				if powered[k] {
					q := &gen2.Query{Session: gen2.Session(op >> 4 & 3), Q: 1}
					ref[k].HandleCommand(q)
					idx[k].HandleCommand(q)
				}
			case 14:
				ref[k].PowerReset()
				idx[k].PowerReset()
				powered[k], dark = false, true
			case 15:
				powered[k] = true
			}
			for ; c != nil && repeat > 0; repeat-- {
				commands++
				var mask []bool
				if dark {
					mask = powered
				}
				var wantR []gen2.Reply
				var wantI []int
				for i, tg := range ref {
					if !powered[i] {
						continue
					}
					if r := tg.HandleCommand(c); r.Kind != gen2.ReplyNone {
						wantR = append(wantR, r)
						wantI = append(wantI, i)
					}
				}
				gotR, gotI := pop.Broadcast(c, mask, nil, nil)
				where := fmt.Sprintf("step %d (%v, command %d)", s/2, c, commands)
				if fmt.Sprint(gotI) != fmt.Sprint(wantI) {
					t.Fatalf("%s: responders %v, per-tag loop %v", where, gotI, wantI)
				}
				for j := range wantR {
					if gotR[j].Kind != wantR[j].Kind || !gotR[j].Bits.Equal(wantR[j].Bits) {
						t.Fatalf("%s: reply %d is %v %v, per-tag loop %v %v", where, j, gotR[j].Kind, gotR[j].Bits, wantR[j].Kind, wantR[j].Bits)
					}
				}
				for i := range ref {
					if got, want := pop.Snapshot(i), ref[i].Snapshot(); got != want {
						t.Fatalf("%s: tag %d state\n got %+v\nwant %+v", where, i, got, want)
					}
				}
			}
		}
		// Releasing the tags writes every lazily kept counter back.
		pop.Reset(nil)
		for i := range ref {
			if got, want := idx[i].Snapshot(), ref[i].Snapshot(); got != want {
				t.Fatalf("after Reset(nil): tag %d state\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}

// twinPopulations builds two identical populations of n tags, each tag
// with a random stream of its own.
func twinPopulations(t *testing.T, n int, seed uint64) (ref, idx []*gen2.TagLogic) {
	t.Helper()
	ra, rb := rng.New(seed), rng.New(seed)
	for i := 0; i < n; i++ {
		epc := []byte{0xE2, byte(i), byte(i * i), 0x30}
		label := fmt.Sprintf("tag-%d", i)
		a, err := gen2.NewTagLogic(epc, ra.Split(label))
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen2.NewTagLogic(epc, rb.Split(label))
		if err != nil {
			t.Fatal(err)
		}
		ref, idx = append(ref, a), append(idx, b)
	}
	return ref, idx
}
