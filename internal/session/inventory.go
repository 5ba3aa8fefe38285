package session

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// ChannelFault perturbs the simulated air interface between the inventory
// controller and its tag population. Implementations must be pure
// functions of their own state and the decision coordinates (command
// index, tag index) so that identical fault processes can drive paired
// protocol variants (see ivn/internal/fault). A nil ChannelFault is the
// clean channel; the unfaulted path costs a nil check and nothing else.
type ChannelFault interface {
	// CommandTruncated reports whether reader command cmd is truncated in
	// flight: no tag receives it, and the reader observes silence.
	CommandTruncated(cmd int) bool
	// TagPowered reports whether tag tagIndex has its rail up when
	// command cmd arrives. A tag observed unpowered is silent; on a
	// powered→unpowered transition its volatile protocol state is reset,
	// as a real passive tag's state dies with its rail.
	TagPowered(cmd, tagIndex int) bool
	// CorruptUplink optionally corrupts a singulated reply's payload
	// bits, returning the corrupted copy and true. The input slice must
	// not be mutated.
	CorruptUplink(cmd int, bits gen2.Bits) (gen2.Bits, bool)
}

// ErrInventoryIncomplete is returned (wrapped) by InventoryAll when the
// round budget is exhausted with tags still unread. The partial EPC list
// accompanies the error, so callers can both use what was read and detect
// that the population was not drained — silent partial success hid
// persistent-collision livelocks before this sentinel existed.
var ErrInventoryIncomplete = errors.New("session: inventory incomplete")

// RecoveryPolicy enables the reader-side recovery stack: the Gen2 Annex-D
// style floating-Q adaptation (QueryAdjust mid-sweep), a bounded re-ACK
// budget on EPC decode failure, and bounded re-query with slot-space
// backoff across rounds. A nil policy reproduces the pre-recovery
// controller exactly.
type RecoveryPolicy struct {
	// MaxACKRetries is the per-singulation re-ACK budget: when an EPC
	// reply is lost or fails its CRC, the controller re-issues the ACK up
	// to this many times (the tag, still in Acknowledged, re-backscatters
	// its EPC). Without this, a corrupted EPC reply silently strands the
	// tag: it flips its inventoried flag believing the exchange
	// succeeded, and stops answering for the rest of the inventory.
	MaxACKRetries int
	// MaxRequeries bounds consecutive fruitless rounds in InventoryAll:
	// after this many rounds with no new EPC the controller gives up
	// (returning ErrInventoryIncomplete) instead of spinning its budget.
	MaxRequeries int
	// QAdjustC is the floating-Q step of the Annex-D algorithm: each
	// collision adds C, each empty slot subtracts C, and when the rounded
	// value moves the controller issues a QueryAdjust mid-sweep. Zero
	// selects DefaultQAdjustC.
	QAdjustC float64
}

// DefaultQAdjustC is the Annex-D Q-step used when QAdjustC is zero — the
// spec suggests 0.1–0.5 with smaller C for larger Q; 0.35 behaves well
// across the population sizes the experiments sweep.
const DefaultQAdjustC = 0.35

// DefaultRecovery returns the recovery policy the fault-matrix experiment
// ships: 2 re-ACKs per singulation, 3 re-queries, default Q step.
func DefaultRecovery() *RecoveryPolicy {
	return &RecoveryPolicy{MaxACKRetries: 2, MaxRequeries: 3, QAdjustC: DefaultQAdjustC}
}

// qStep resolves the configured floating-Q step.
func (p *RecoveryPolicy) qStep() float64 {
	if p.QAdjustC > 0 {
		return p.QAdjustC
	}
	return DefaultQAdjustC
}

// floatQ is the Annex-D floating-Q accumulator with the spec bounds built
// in: the float value is clamped to [0,15] as it moves, and the commanded
// Q only ever changes by the single ±1 step a QueryAdjust can carry, so
// the reader's slot arithmetic can never desynchronize from the tag-side
// clamp in gen2.TagLogic. (Before this type, a step C > 1 could round to
// a multi-step jump the reader applied at once while every tag moved by
// one — the reader then walked a slot space the population wasn't in.)
type floatQ struct {
	v, c float64
}

func newFloatQ(q byte, c float64) floatQ {
	return floatQ{v: float64(q & 0xF), c: c}
}

// collision accumulates a collided slot: Q drifts up, saturating at 15.
func (f *floatQ) collision() { f.v = math.Min(15, f.v+f.c) }

// empty accumulates an empty slot: Q drifts down, saturating at 0.
func (f *floatQ) empty() { f.v = math.Max(0, f.v-f.c) }

// target is the rounded floating Q, always within the spec's [0,15].
func (f *floatQ) target() byte {
	t := math.Round(f.v)
	if t < 0 {
		t = 0
	} else if t > 15 {
		t = 15
	}
	return byte(t)
}

// step reports the next commanded Q: one ±1 move toward the rounded
// target, never outside [0,15], moved=false when already there.
func (f *floatQ) step(cur byte) (next byte, up, moved bool) {
	t := f.target()
	switch {
	case t > cur && cur < 15:
		return cur + 1, true, true
	case t < cur && cur > 0:
		return cur - 1, false, true
	default:
		return cur, false, false
	}
}

// InventoryController is the reader-side inventory engine: it runs
// slotted-ALOHA sweeps against a tag population, re-sizing the Q
// parameter between sweeps from a collision-based backlog estimate.
// IVN's multi-sensor story (§3.7) rides on this machinery:
// "In order to avoid collision between multiple sensors, IVN can leverage
// a variety of techniques from standard backscatter communications."
//
// With a non-nil Fault the controller sees a degraded channel (truncated
// commands, browned-out tags, corrupted uplinks); with a non-nil Recovery
// it fights back (floating-Q adaptation, re-ACK, re-query backoff). Both
// nil reproduces the historical clean-channel controller command for
// command. A non-nil Trace receives the typed event stream of every
// round, timestamped by the commands' PIE frame durations.
type InventoryController struct {
	// Session is the inventory session to run rounds in.
	Session gen2.Session
	// InitialQ seeds the slot-count exponent (0-15).
	InitialQ byte
	// MaxCommands bounds a round (guards against livelock).
	MaxCommands int
	// Channel models the uplink at event level: singulated replies decode
	// with a budget-derived probability and collisions can resolve by
	// capture. Implementations keyed by tag index (EventChannel.Budgets)
	// must be index-aligned with the TagLogic slice handed to
	// RunRound/InventoryAll. nil is the historical ideal uplink: every
	// reply decodes exactly and collisions never capture.
	Channel Channel
	// Fault perturbs the air interface; nil = clean channel.
	Fault ChannelFault
	// Recovery enables the recovery stack; nil = no recovery.
	Recovery *RecoveryPolicy
	// Trace observes the rounds; nil is free.
	Trace *Trace

	// cmdClock numbers every command issued within one run, so a
	// ChannelFault sees globally unique decision coordinates across the
	// rounds of an InventoryAll. RunRound advances it across calls (a
	// manual round loop is one run); InventoryAll resets it at entry so a
	// reused controller replays the same fault schedule every run.
	cmdClock int
	// pie times traced commands; defaulted lazily, never used untraced.
	pie gen2.PIEParams
	// m is the air interface of the current round.
	m medium
}

// NewInventoryController returns a controller with spec-typical defaults.
func NewInventoryController(session gen2.Session) *InventoryController {
	return &InventoryController{
		Session:     session,
		InitialQ:    4,
		MaxCommands: 4096,
	}
}

// SlotOutcome classifies one slot of a round.
type SlotOutcome int

// Slot outcomes.
const (
	SlotEmpty SlotOutcome = iota
	SlotSingle
	SlotCollision
	// SlotCapture is a collided slot the capture effect resolved: the
	// dominant responder's RN16 was recovered despite the clash, so the
	// reader proceeds as for a single. Only a non-nil Channel produces
	// it. The Q estimators treat it as a single — the reader cannot tell
	// a captured collision from a clean singulation.
	SlotCapture
)

// String names the outcome.
func (s SlotOutcome) String() string {
	switch s {
	case SlotEmpty:
		return "empty"
	case SlotSingle:
		return "single"
	case SlotCollision:
		return "collision"
	case SlotCapture:
		return "capture"
	default:
		return fmt.Sprintf("SlotOutcome(%d)", int(s))
	}
}

// RoundStats summarizes a completed round.
type RoundStats struct {
	// EPCs are the identifiers read, in singulation order. Under power
	// faults a tag can be read twice in one round (a brownout resets its
	// inventoried flag); InventoryAll deduplicates across rounds.
	EPCs [][]byte
	// Commands is the number of reader commands issued.
	Commands int
	// Slots, Empties, Singles, Collisions count slot outcomes. A
	// captured collision counts under Captures, not Singles or
	// Collisions.
	Slots, Empties, Singles, Collisions int
	// Captures counts collided slots the channel's capture effect
	// resolved into a singulation (non-nil Channel only).
	Captures int
	// QueryAdjusts counts mid-sweep QueryAdjust commands issued by the
	// floating-Q adaptation (Recovery only).
	QueryAdjusts int
	// FinalQ is the floating Q at round end.
	FinalQ float64

	// Truncated counts reader commands lost in flight (ChannelFault).
	Truncated int
	// Corrupted counts uplink replies the fault layer corrupted.
	Corrupted int
	// Brownouts counts observed powered→unpowered tag transitions.
	Brownouts int
	// LostSlots counts singulated slots that yielded no EPC: undecodable
	// RN16, lost ACK exchange, or EPC corruption beyond the retry budget.
	LostSlots int
	// ACKRetries counts recovery re-ACKs issued (Recovery only).
	ACKRetries int
	// Recovered counts EPCs obtained only through a re-ACK (Recovery
	// only) — reads that the no-recovery controller would have lost.
	Recovered int
}

// Efficiency returns singulations per slot (captures included) — the
// throughput metric slotted ALOHA maximizes near Q ≈ log2(population).
func (s RoundStats) Efficiency() float64 {
	if s.Slots == 0 {
		return 0
	}
	return float64(s.Singles+s.Captures) / float64(s.Slots)
}

// medium abstracts what the controller can observe of the air interface.
// With more than one tag backscattering in a slot the reader sees a
// collision (CRC/preamble failure), not bits — unless a channel's
// capture effect resolves the clash for the dominant tag. A non-nil
// fault interposes on every broadcast: command truncation, per-tag
// power, uplink corruption. Replies report the responder's population
// index (-1 when no single responder) so the channel can look up its
// realized budget. The controller keeps one medium and re-binds it each
// round, so its index and scratch are allocated once per controller.
type medium struct {
	pop     gen2.Population
	tags    []*gen2.TagLogic
	channel Channel
	rand    *rng.Rand
	fault   ChannelFault
	clock   *int
	lit     []bool // last observed power state per tag (fault != nil only)
	stats   *RoundStats
	trace   *Trace

	// got and responders collect one command's replies; the command
	// values are re-filled for every command a round issues.
	got        []gen2.Reply
	responders []int
	query      gen2.Query
	rep        gen2.QueryRep
	adjust     gen2.QueryAdjust
	ack        gen2.ACK
}

// broadcast sends a command to every powered tag and classifies replies.
// Without a fault every tag is powered and no command is truncated; the
// command clock still advances, though only a fault ever reads it. The
// population index decides which tags the command visits; a fault's
// power check is the one pass over every tag, and it runs first, so a
// browned-out tag is already back in Ready when the command arrives.
func (m *medium) broadcast(c gen2.Command) (SlotOutcome, gen2.Reply, int) {
	cmd := *m.clock
	*m.clock++
	var powered []bool
	if m.fault != nil {
		if m.fault.CommandTruncated(cmd) {
			m.stats.Truncated++
			if m.trace != nil {
				m.trace.Emit(Event{Kind: EvFaultFired, Outcome: "truncated", Cmd: c.Type().String()})
			}
			return SlotEmpty, gen2.Reply{Kind: gen2.ReplyNone}, -1
		}
		m.observePower(cmd)
		powered = m.lit
	}
	m.got, m.responders = m.pop.Broadcast(c, powered, m.got[:0], m.responders[:0])
	return m.classify(cmd, m.got, m.responders)
}

// endRound hands the tags back with exact slot counters and drops the
// medium's references to the round's tags, replies, channel, stream,
// fault, stats and trace; only reusable scratch outlives the round.
func (m *medium) endRound() {
	m.pop.Reset(nil)
	clear(m.got[:cap(m.got)])
	m.got, m.responders = m.got[:0], m.responders[:0]
	m.tags, m.channel, m.rand, m.fault, m.stats, m.trace = nil, nil, nil, nil, nil, nil
}

// observePower records which tags the fault keeps powered for command
// cmd in m.lit, and power-resets every tag that browns out after being
// lit.
func (m *medium) observePower(cmd int) {
	for i, t := range m.tags {
		on := m.fault.TagPowered(cmd, i)
		if !on && m.lit[i] {
			t.PowerReset()
			m.stats.Brownouts++
			if m.trace != nil {
				m.trace.Emit(Event{Kind: EvFaultFired, Outcome: "brownout", EPC: fmt.Sprintf("%x", t.EPC())})
			}
		}
		m.lit[i] = on
	}
}

// classify resolves the collected replies of one broadcast into a slot
// outcome. cmd keys fault corruption.
func (m *medium) classify(cmd int, got []gen2.Reply, responders []int) (SlotOutcome, gen2.Reply, int) {
	switch len(got) {
	case 0:
		return SlotEmpty, gen2.Reply{Kind: gen2.ReplyNone}, -1
	case 1:
		return SlotSingle, m.corrupt(cmd, got[0]), responders[0]
	default:
		if m.channel != nil {
			if w := m.channel.Capture(responders, m.rand); w >= 0 {
				for j, ti := range responders {
					if ti == w {
						// The winner's bits survived the clash; fault
						// corruption still applies on top.
						return SlotCapture, m.corrupt(cmd, got[j]), w
					}
				}
			}
		}
		return SlotCollision, gen2.Reply{Kind: gen2.ReplyNone}, -1
	}
}

// corrupt applies fault-layer uplink corruption to a singulated reply.
func (m *medium) corrupt(cmd int, reply gen2.Reply) gen2.Reply {
	if m.fault == nil {
		return reply
	}
	if bits, corrupted := m.fault.CorruptUplink(cmd, reply.Bits); corrupted {
		m.stats.Corrupted++
		reply.Bits = bits
		if m.trace != nil {
			m.trace.Emit(Event{Kind: EvFaultFired, Outcome: "corrupted"})
		}
	}
	return reply
}

// RunRound inventories a population of powered tags. Each sweep issues a
// Query with the current Q and walks all 2^Q slots with QueryReps, ACKing
// singles; after the sweep the backlog is estimated from the collision
// count (Schoute's 2.39·c estimator) and Q is re-sized for the next sweep.
// With Recovery set, the Annex-D floating-Q algorithm additionally adjusts
// Q mid-sweep via QueryAdjust. The round ends when a sweep drains (no
// replies) or MaxCommands is hit.
func (ic *InventoryController) RunRound(tags []*gen2.TagLogic, r *rng.Rand) (*RoundStats, error) {
	return ic.runRound(tags, ic.InitialQ&0xF, r)
}

func (ic *InventoryController) runRound(tags []*gen2.TagLogic, q byte, r *rng.Rand) (*RoundStats, error) {
	if len(tags) == 0 {
		return nil, fmt.Errorf("session: no tags to inventory")
	}
	maxCmds := ic.MaxCommands
	if maxCmds <= 0 {
		maxCmds = 4096
	}
	stats := &RoundStats{}
	m := &ic.m
	m.pop.Reset(tags)
	defer m.endRound()
	m.tags, m.channel, m.rand, m.fault, m.clock, m.stats, m.trace = tags, ic.Channel, r, ic.Fault, &ic.cmdClock, stats, ic.Trace
	m.query = gen2.Query{Session: ic.Session}
	m.rep = gen2.QueryRep{Session: ic.Session}
	m.adjust = gen2.QueryAdjust{Session: ic.Session}
	if ic.Fault != nil {
		m.lit = slices.Grow(m.lit[:0], len(tags))[:len(tags)]
		for i := range m.lit {
			m.lit[i] = true
		}
	}
	if ic.Recovery != nil {
		return ic.runAdaptive(stats, q, maxCmds, r)
	}
	return ic.runFixed(stats, q, maxCmds, r)
}

// issue issues one command, charging the round's command budget and
// advancing the trace clock past the command's on-air time.
func (ic *InventoryController) issue(c gen2.Command) (SlotOutcome, gen2.Reply, int) {
	ic.m.stats.Commands++
	if ic.Trace != nil {
		ic.traceCommand(c)
	}
	return ic.m.broadcast(c)
}

// query issues the round's Query at slot-count exponent q.
func (ic *InventoryController) query(q byte) (SlotOutcome, gen2.Reply, int) {
	ic.m.query.Q = q
	return ic.issue(&ic.m.query)
}

// ack issues an ACK echoing rn16.
func (ic *InventoryController) ack(rn16 uint16) (SlotOutcome, gen2.Reply, int) {
	ic.m.ack.RN16 = rn16
	return ic.issue(&ic.m.ack)
}

// traceCommand advances the sim clock by the command's PIE frame
// duration and emits the command-sent event. Only reached when tracing.
func (ic *InventoryController) traceCommand(c gen2.Command) {
	if ic.pie.SampleRate == 0 {
		// Frame durations depend only on the symbol timing, not the
		// envelope sample rate; any positive rate validates.
		ic.pie = gen2.DefaultPIE(1)
	}
	bits := c.AppendBits(nil)
	ic.Trace.Advance(ic.pie.FrameDuration(bits, c.Type() == gen2.CmdQuery))
	ev := Event{Kind: EvCommandSent, Cmd: c.Type().String()}
	if qc, ok := c.(*gen2.Query); ok {
		// The commanded slot-count exponent, so observers (and the
		// ceiling regression test) can replay the commanded Q exactly.
		ev.Value = float64(qc.Q)
	}
	if qa, ok := c.(*gen2.QueryAdjust); ok {
		if qa.UpDn == gen2.QUp {
			ev.Outcome = "up"
		} else {
			ev.Outcome = "down"
		}
	}
	ic.Trace.Emit(ev)
}

// traceSlot emits the slot-resolution event. Only reached when tracing.
func (ic *InventoryController) traceSlot(outcome SlotOutcome) {
	ic.Trace.Emit(Event{Kind: EvSlotResolved, Outcome: outcome.String()})
}

// channelDecode pushes a singulated reply through the channel, advancing
// the trace clock by the receive window and emitting the reply-decoded
// event, mirroring the stream the DSP link emits. Only called with a
// non-nil Channel.
func (ic *InventoryController) channelDecode(tagIndex int, reply gen2.Reply, exchange string, r *rng.Rand) (ChannelDecode, error) {
	dec, err := ic.Channel.DecodeReply(tagIndex, reply, exchange, r)
	if err != nil {
		return dec, err
	}
	if ic.Trace != nil {
		ic.Trace.Advance(ic.Channel.ReceiveSeconds())
		ev := Event{Kind: EvReplyDecoded, Label: exchange, OK: dec.OK}
		if dec.OK {
			ev.Value = dec.Correlation
		}
		ic.Trace.Emit(ev)
	}
	return dec, nil
}

// sweep counts the replies one Query's sweep drew: singulated slots
// (captures included) and collisions.
type sweep struct{ singles, collisions int }

// resolveSlot tallies one slot's outcome into the round and sweep counts,
// traces it, and singulates a single or captured reply.
func (ic *InventoryController) resolveSlot(stats *RoundStats, sw *sweep, outcome SlotOutcome, reply gen2.Reply, resp int, r *rng.Rand) error {
	stats.Slots++
	if ic.Trace != nil {
		ic.traceSlot(outcome)
	}
	switch outcome {
	case SlotSingle, SlotCapture:
		if outcome == SlotCapture {
			stats.Captures++
		} else {
			stats.Singles++
		}
		sw.singles++
		return ic.singulate(stats, reply, resp, outcome == SlotCapture, r)
	case SlotCollision:
		stats.Collisions++
		sw.collisions++
	case SlotEmpty:
		stats.Empties++
	}
	return nil
}

// runFixed is the historical sweep structure: fixed Q per sweep, Schoute
// backlog estimation between sweeps. With Fault == nil it issues exactly
// the command sequence of the pre-fault controller.
func (ic *InventoryController) runFixed(stats *RoundStats, q byte, maxCmds int, r *rng.Rand) (*RoundStats, error) {
	for stats.Commands < maxCmds {
		// One sweep: Query opens slot 0; QueryReps advance.
		outcome, reply, resp := ic.query(q)
		var sw sweep
		slots := 1 << uint(q)
		for slot := 0; slot < slots && stats.Commands < maxCmds; slot++ {
			if err := ic.resolveSlot(stats, &sw, outcome, reply, resp, r); err != nil {
				return nil, err
			}
			if slot < slots-1 {
				outcome, reply, resp = ic.issue(&ic.m.rep)
			}
		}
		if sw.singles == 0 && sw.collisions == 0 {
			break // drained
		}
		// Schoute backlog estimate: ≈2.39 tags per colliding slot.
		backlog := int(2.39*float64(sw.collisions) + 0.5)
		if backlog == 0 {
			// Singles only: one more tight sweep catches stragglers that
			// were mid-handshake.
			q = 1
			continue
		}
		nq := byte(0)
		for 1<<uint(nq) < backlog && nq < 15 {
			nq++
		}
		q = nq
	}
	stats.FinalQ = float64(q)
	return stats, nil
}

// runAdaptive is the recovery-side round: the Gen2 Annex-D floating-Q
// algorithm. Each collision adds C to the floating Q, each empty slot
// subtracts C; when the rounded value moves, the controller issues a
// QueryAdjust, every arbitrating tag redraws its slot, and the sweep
// restarts at the new size. This tracks the true backlog much faster than
// per-sweep estimation when faults churn protocol state mid-round. The
// accumulator is clamped to the spec's [0,15] and each QueryAdjust steps
// the commanded Q by exactly the ±1 the command carries (see floatQ).
func (ic *InventoryController) runAdaptive(stats *RoundStats, q byte, maxCmds int, r *rng.Rand) (*RoundStats, error) {
	fq := newFloatQ(q, ic.Recovery.qStep())
	for stats.Commands < maxCmds {
		outcome, reply, resp := ic.query(q)
		var sw sweep
		slots := 1 << uint(q)
		slot := 0
		for slot < slots && stats.Commands < maxCmds {
			if err := ic.resolveSlot(stats, &sw, outcome, reply, resp, r); err != nil {
				return nil, err
			}
			switch outcome {
			case SlotCollision:
				fq.collision()
			case SlotEmpty:
				fq.empty()
			}
			slot++
			if slot >= slots || stats.Commands >= maxCmds {
				break
			}
			if nq, up, moved := fq.step(q); moved {
				// Mid-sweep re-size: QueryAdjust redraws every arbitrating
				// tag into the new slot space, stepping Q by the single ±1
				// the command encodes — the reader and every tag stay in
				// lockstep for any C, and Q never leaves [0,15].
				stats.QueryAdjusts++
				ic.m.adjust.UpDn = gen2.QUp
				if !up {
					ic.m.adjust.UpDn = gen2.QDown
				}
				q = nq
				slots = 1 << uint(q)
				slot = 0
				outcome, reply, resp = ic.issue(&ic.m.adjust)
				continue
			}
			outcome, reply, resp = ic.issue(&ic.m.rep)
		}
		if sw.singles == 0 && sw.collisions == 0 {
			break // drained
		}
		q = fq.target()
	}
	stats.FinalQ = fq.v
	return stats, nil
}

// singulate runs the ACK → EPC exchange for a singulated slot, with the
// recovery policy's bounded re-ACK on decode failure. On the clean
// channel an undecodable RN16 is a protocol invariant violation and
// surfaces as an error; under fault injection it is a lost slot. With a
// non-nil Channel the RN16 and EPC captures must additionally clear
// their budget-derived decode draws; a captured slot (captured=true)
// arrives with its RN16 already decoded under the losers' interference,
// inside Channel.Capture.
func (ic *InventoryController) singulate(stats *RoundStats, reply gen2.Reply, responder int, captured bool, r *rng.Rand) error {
	if ic.Channel != nil {
		if captured {
			// Capture already drew the interference-degraded RN16 decode;
			// mirror the receive time and event so observers see the same
			// stream shape as a clean singulation.
			if ic.Trace != nil {
				ic.Trace.Advance(ic.Channel.ReceiveSeconds())
				ic.Trace.Emit(Event{Kind: EvReplyDecoded, Label: "rn16", OK: true})
			}
		} else {
			dec, err := ic.channelDecode(responder, reply, "rn16", r)
			if err != nil {
				return err
			}
			if !dec.OK {
				// The reader cannot form an ACK; the tag times out of Reply
				// back to arbitration at the next Query/QueryRep/QueryAdjust.
				stats.LostSlots++
				if ic.Trace != nil {
					ic.Trace.Emit(Event{Kind: EvEPCStranded, Outcome: "rn16-lost"})
				}
				return nil
			}
		}
	}
	var rn gen2.RN16Reply
	if err := rn.DecodeFromBits(reply.Bits); err != nil {
		if ic.Fault == nil {
			return fmt.Errorf("session: bad RN16 reply: %w", err)
		}
		// Corruption shortened the reply: the reader cannot form an ACK,
		// so the slot is lost. (A bit-flipped but length-preserving RN16
		// decodes to a wrong value; the mismatched ACK below sends the
		// tag back to arbitration, which is the same loss one exchange
		// later.)
		stats.LostSlots++
		if ic.Trace != nil {
			ic.Trace.Emit(Event{Kind: EvEPCStranded, Outcome: "bad-rn16"})
		}
		return nil
	}
	ackOutcome, epcReply, epcResp := ic.ack(rn.RN16)
	if ackOutcome == SlotSingle && epcReply.Kind == gen2.ReplyEPC {
		chOK := true
		if ic.Channel != nil {
			dec, err := ic.channelDecode(epcResp, epcReply, "epc", r)
			if err != nil {
				return err
			}
			chOK = dec.OK
		}
		if chOK {
			var er gen2.EPCReply
			if err := er.DecodeFromBits(epcReply.Bits); err == nil {
				stats.EPCs = append(stats.EPCs, er.EPC)
				if ic.Trace != nil {
					ic.Trace.Emit(Event{Kind: EvEPCRead, EPC: fmt.Sprintf("%x", er.EPC)})
				}
				return nil
			}
		}
	}
	// The EPC exchange failed: the reply was lost, collided, failed its
	// decode draw, or failed its CRC. The tag meanwhile believes it was
	// acknowledged and will flip its inventoried flag at the next
	// Query/QueryRep — without recovery it is stranded for the rest of
	// the inventory. Re-ACK while it still holds the handshake RN16.
	if rec := ic.Recovery; rec != nil {
		for attempt := 0; attempt < rec.MaxACKRetries; attempt++ {
			stats.ACKRetries++
			if ic.Trace != nil {
				ic.Trace.Emit(Event{Kind: EvRetryTaken, Cmd: "ACK", Attempt: attempt + 1})
			}
			outcome, rep, rresp := ic.ack(rn.RN16)
			if outcome != SlotSingle || rep.Kind != gen2.ReplyEPC {
				continue
			}
			if ic.Channel != nil {
				dec, err := ic.channelDecode(rresp, rep, "epc", r)
				if err != nil {
					return err
				}
				if !dec.OK {
					continue
				}
			}
			var er gen2.EPCReply
			if err := er.DecodeFromBits(rep.Bits); err == nil {
				stats.EPCs = append(stats.EPCs, er.EPC)
				stats.Recovered++
				if ic.Trace != nil {
					ic.Trace.Emit(Event{Kind: EvEPCRecovered, EPC: fmt.Sprintf("%x", er.EPC), Attempt: attempt + 1})
				}
				return nil
			}
		}
	}
	stats.LostSlots++
	if ic.Trace != nil {
		ic.Trace.Emit(Event{Kind: EvEPCStranded, Outcome: "epc-lost"})
	}
	return nil
}

// InventoryAll runs rounds until every tag has been read or maxRounds is
// exhausted, returning the union of EPCs in first-read order. When the
// budget runs out with tags unread, the partial list is returned together
// with an error wrapping ErrInventoryIncomplete — exhaustion is never
// silent. With Recovery set, a round that reads nothing new triggers a
// bounded re-query with slot-space backoff: the next round opens with a
// doubled slot count (Q+1), de-correlating persistent collisions; after
// MaxRequeries consecutive fruitless rounds the controller gives up early
// rather than spending the remaining budget on a livelocked population.
func (ic *InventoryController) InventoryAll(tags []*gen2.TagLogic, maxRounds int, r *rng.Rand) ([][]byte, error) {
	if maxRounds < 1 {
		return nil, fmt.Errorf("session: maxRounds %d < 1", maxRounds)
	}
	// Each run replays the fault schedule from command zero: a reused
	// controller previously carried cmdClock over, so the second run of a
	// paired fault on/off comparison saw a shifted schedule and silently
	// desynchronized (see TestInventoryAllResetsCmdClock).
	ic.cmdClock = 0
	seen := map[string]bool{}
	var out [][]byte
	baseQ := ic.InitialQ & 0xF
	q := baseQ
	noProgress := 0
	for round := 0; round < maxRounds && len(seen) < len(tags); round++ {
		stats, err := ic.runRound(tags, q, r)
		if err != nil {
			return out, err
		}
		progress := 0
		for _, epc := range stats.EPCs {
			if !seen[string(epc)] {
				seen[string(epc)] = true
				out = append(out, epc)
				progress++
			}
		}
		if rec := ic.Recovery; rec != nil {
			if progress == 0 {
				noProgress++
				if noProgress > rec.MaxRequeries {
					break // re-query budget exhausted; report incompleteness below
				}
				if q < 15 {
					q++ // backoff: double the slot space for the re-query
				}
				if ic.Trace != nil {
					ic.Trace.Emit(Event{Kind: EvRetryTaken, Cmd: "Query", Attempt: noProgress})
				}
			} else {
				noProgress = 0
				q = baseQ
			}
		}
	}
	if len(seen) < len(tags) {
		return out, fmt.Errorf("session: read %d of %d tags: %w", len(seen), len(tags), ErrInventoryIncomplete)
	}
	return out, nil
}
