package session

import (
	"fmt"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

func makePopulation(t *testing.T, n int, seed uint64) []*gen2.TagLogic {
	t.Helper()
	r := rng.New(seed)
	tags := make([]*gen2.TagLogic, n)
	for i := range tags {
		epc := []byte{0xE2, byte(i >> 8), byte(i), 0x01}
		tag, err := gen2.NewTagLogic(epc, r.Split(fmt.Sprintf("tag-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tag
	}
	return tags
}

func TestRunRoundSingleTag(t *testing.T) {
	tags := makePopulation(t, 1, 1)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 0
	stats, err := ic.RunRound(tags, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EPCs) != 1 {
		t.Fatalf("read %d EPCs, want 1", len(stats.EPCs))
	}
	if stats.Singles != 1 || stats.Collisions != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRunRoundManyTags(t *testing.T) {
	const n = 20
	tags := makePopulation(t, n, 3)
	ic := NewInventoryController(gen2.S0)
	stats, err := ic.RunRound(tags, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EPCs) < n*7/10 {
		t.Fatalf("single round read only %d/%d tags", len(stats.EPCs), n)
	}
	// No duplicates within a round (read tags drop out via flag flip).
	seen := map[string]bool{}
	for _, epc := range stats.EPCs {
		if seen[string(epc)] {
			t.Fatalf("duplicate EPC %x in one round", epc)
		}
		seen[string(epc)] = true
	}
	if stats.Commands > ic.MaxCommands {
		t.Fatalf("command budget exceeded: %d", stats.Commands)
	}
}

func TestInventoryAllReadsEveryone(t *testing.T) {
	const n = 30
	tags := makePopulation(t, n, 5)
	ic := NewInventoryController(gen2.S1)
	epcs, err := ic.InventoryAll(tags, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(epcs) != n {
		t.Fatalf("read %d/%d tags across rounds", len(epcs), n)
	}
	seen := map[string]bool{}
	for _, epc := range epcs {
		if seen[string(epc)] {
			t.Fatalf("duplicate EPC %x", epc)
		}
		seen[string(epc)] = true
	}
}

func TestQAdaptsUpUnderCollisions(t *testing.T) {
	// Starting with Q=0 against 16 tags forces collisions; the controller
	// must grow Q rather than livelock.
	tags := makePopulation(t, 16, 7)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 0
	stats, err := ic.RunRound(tags, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collisions == 0 {
		t.Fatal("expected collisions with Q=0 and 16 tags")
	}
	if len(stats.EPCs) == 0 {
		t.Fatal("no tags read despite adaptation")
	}
	if stats.FinalQ == 0 {
		t.Fatal("Q never grew under collisions")
	}
}

func TestQAdaptsDownWhenOversized(t *testing.T) {
	// Q=10 (1024 slots) against 2 tags: mostly empties; Q must shrink and
	// the round must still finish inside the command budget.
	tags := makePopulation(t, 2, 9)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 10
	stats, err := ic.RunRound(tags, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalQ >= 10 {
		t.Fatalf("Q did not shrink: %v", stats.FinalQ)
	}
	if len(stats.EPCs) != 2 {
		t.Fatalf("read %d/2 tags", len(stats.EPCs))
	}
}

func TestRoundEfficiencyReasonable(t *testing.T) {
	// Slotted ALOHA peaks at 1/e ≈ 0.37 singles/slot; an adaptive reader
	// should stay within the right order of magnitude.
	tags := makePopulation(t, 24, 11)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 5 // near log2(24)
	stats, err := ic.RunRound(tags, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.Efficiency(); e < 0.1 || e > 0.6 {
		t.Fatalf("efficiency %v outside plausible slotted-ALOHA range", e)
	}
}

func TestRunRoundValidation(t *testing.T) {
	ic := NewInventoryController(gen2.S0)
	if _, err := ic.RunRound(nil, rng.New(1)); err == nil {
		t.Fatal("empty population accepted")
	}
	if _, err := ic.InventoryAll(makePopulation(t, 1, 1), 0, rng.New(1)); err == nil {
		t.Fatal("maxRounds 0 accepted")
	}
}

func TestSlotOutcomeStrings(t *testing.T) {
	for o, want := range map[SlotOutcome]string{
		SlotEmpty: "empty", SlotSingle: "single", SlotCollision: "collision",
	} {
		if o.String() != want {
			t.Errorf("%d = %q", o, o.String())
		}
	}
	if SlotOutcome(9).String() == "" {
		t.Error("unknown outcome empty string")
	}
}

func TestRunRoundDeterministic(t *testing.T) {
	run := func() int {
		tags := makePopulation(t, 10, 21)
		ic := NewInventoryController(gen2.S0)
		stats, err := ic.RunRound(tags, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Commands*1000 + len(stats.EPCs)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("rounds differ across identical seeds: %d vs %d", a, b)
	}
}

// replyCounter is an ideal Channel that counts every tag reply the
// controller sees: singulated replies reach DecodeReply, collided ones
// reach Capture, which never resolves them.
type replyCounter struct{ replies int }

func (c *replyCounter) DecodeReply(int, gen2.Reply, string, *rng.Rand) (ChannelDecode, error) {
	c.replies++
	return ChannelDecode{OK: true}, nil
}

func (c *replyCounter) Capture(responders []int, _ *rng.Rand) int {
	c.replies += len(responders)
	return -1
}

func (*replyCounter) ReceiveSeconds() float64 { return 0 }

// TestRunRoundAllocsScaleWithReplies pins the inventory path's
// allocations to the tags' replies (each reply's bits, each decoded EPC):
// issuing a command, handing it to the population and collecting its
// replies allocate nothing, so neither the command count nor the
// population size enters the budget.
func TestRunRoundAllocsScaleWithReplies(t *testing.T) {
	for _, floating := range []bool{false, true} {
		tags := makePopulation(t, 256, 11)
		ch := &replyCounter{}
		ic := NewInventoryController(gen2.S0)
		ic.MaxCommands = 12*len(tags) + 256
		ic.Channel = ch
		if floating {
			ic.Recovery = DefaultRecovery()
		}
		r := rng.New(12)
		commands, runs := 0, 0
		allocs := testing.AllocsPerRun(5, func() {
			for _, tg := range tags {
				tg.PowerReset()
			}
			stats, err := ic.RunRound(tags, r)
			if err != nil {
				t.Fatal(err)
			}
			commands += stats.Commands
			runs++
		})
		replies := float64(ch.replies) / float64(runs)
		t.Logf("floating=%t: %.0f allocs, %.0f replies, %d commands per round", floating, allocs, replies, commands/runs)
		if budget := 2*replies + 16; allocs > budget {
			t.Errorf("floating=%t: a round allocates %.0f times for %.0f replies over %d commands, budget %.0f", floating, allocs, replies, commands/runs, budget)
		}
	}
}
