package gen2

// Population is an indexed view of a tag population for the inventory
// commands that only a few tags can act on. Broadcasting a command
// through it has exactly the effect of calling HandleCommand on every tag
// in index order, but a QueryRep, QueryAdjust or ACK visits only the tags
// that can respond:
//
//   - Tags in Arbitrate sit in a min-heap keyed by the QueryRep epoch at
//     which their slot counter reaches zero (or, for a counter already at
//     zero, rolls over to 0x7FFF), ties broken by index. Their counters
//     are brought up to date lazily: a counter written at some epoch is
//     worth due−epoch at any later one. A QueryRep advances the epoch and
//     pops the tags due at it, in ascending index.
//   - Tags in Reply, Acknowledged, Open or Secured form a short list in
//     ascending index. A QueryRep also visits these; an ACK visits only
//     these.
//   - A QueryAdjust visits every indexed (non-Ready) tag.
//   - A Query, any other command, a QueryRep or QueryAdjust of a session
//     the indexed tags do not share, and the first command after Reset
//     visit every tag and rebuild the index.
//
// Skipping a tag never reorders a random draw, because every draw comes
// from the tag's own stream. Replies come back in ascending index, the
// order the per-tag loop produces, which is what makes capture (a
// strict-maximum tie-break over a floating-point sum) reproducible.
//
// A filed tag's slot counter is stale until a command visits it or Reset
// writes it back, so between a Broadcast and the next Reset the tags must
// change state only through Broadcast, with one exception: PowerReset. A
// power-reset tag is Ready, ignores every command the index serves, and
// leaves the index at its next visit.
type Population struct {
	tags []*TagLogic
	// valid is false until a full visit has built the index.
	valid bool
	// session is the session every indexed tag holds; mixed reports that
	// they hold more than one, which sends every command to a full visit.
	session Session
	mixed   bool
	// epoch counts the in-session QueryReps since the last full visit.
	epoch int64
	// due is, per tag in the heap, the epoch of the QueryRep that acts on
	// it. Its slot counter, when nonzero, is due−epoch at any epoch before.
	due []int64
	// heap holds the Arbitrate tags; replying holds the Reply,
	// Acknowledged, Open and Secured ones in ascending index; member
	// marks both.
	heap     []int32
	replying []int32
	member   []bool
}

// Reset writes back the slot counters of the tags the population held,
// then binds it to tags, reusing its storage, and forces a full visit for
// the next command. Reset(nil) releases the tags.
func (p *Population) Reset(tags []*TagLogic) {
	if p.valid {
		p.syncSlots()
	}
	p.tags = tags
	p.valid = false
	p.heap, p.replying = p.heap[:0], p.replying[:0]
	if cap(p.due) < len(tags) {
		p.due = make([]int64, len(tags))
		p.member = make([]bool, len(tags))
	}
	p.due, p.member = p.due[:len(tags)], p.member[:len(tags)]
}

// Broadcast hands c to every tag and appends each reply, with its tag's
// index, to replies and responders in ascending index. powered, when
// non-nil, marks the tags that receive c; an unpowered tag must be in
// Ready (power-reset when it lost its rail), where it ignores every
// command the index serves, so only a full visit consults powered.
func (p *Population) Broadcast(c Command, powered []bool, replies []Reply, responders []int) ([]Reply, []int) {
	if p.valid && !p.mixed {
		switch cmd := c.(type) {
		case *QueryRep:
			if cmd.Session == p.session {
				return p.queryRep(cmd, replies, responders)
			}
		case *QueryAdjust:
			if cmd.Session == p.session {
				return p.queryAdjust(cmd, replies, responders)
			}
		case *ACK:
			return p.ack(cmd, replies, responders)
		}
	}
	return p.visitAll(c, powered, replies, responders)
}

// visitAll is the per-tag reference loop followed by an index rebuild.
func (p *Population) visitAll(c Command, powered []bool, replies []Reply, responders []int) ([]Reply, []int) {
	if p.valid {
		p.syncSlots()
	}
	for i, t := range p.tags {
		if powered != nil && !powered[i] {
			continue
		}
		if r := t.HandleCommand(c); r.Kind != ReplyNone {
			replies = append(replies, r)
			responders = append(responders, i)
		}
	}
	p.rebuild()
	return replies, responders
}

// syncSlots writes every heap tag's slot counter at the current epoch.
func (p *Population) syncSlots() {
	for _, i := range p.heap {
		if t := p.tags[i]; t.state == StateArbitrate && t.slot != 0 {
			t.slot = uint32(p.due[i] - p.epoch)
		}
	}
}

// rebuild indexes every non-Ready tag from its current state.
func (p *Population) rebuild() {
	p.valid, p.mixed, p.epoch = true, false, 0
	p.heap, p.replying = p.heap[:0], p.replying[:0]
	first := true
	for i, t := range p.tags {
		p.member[i] = t.state != StateReady
		if !p.member[i] {
			continue
		}
		if first {
			p.session, first = t.session, false
		} else if t.session != p.session {
			p.mixed = true
		}
		p.file(int32(i))
	}
	p.heapify()
}

// file places indexed tag i by its state at the current epoch: Arbitrate
// tags are due at the QueryRep that brings their counter to zero, or, at
// zero already, at the next one, which rolls them over. It appends to
// the heap without restoring the heap order; heapify does that once the
// population is filed.
func (p *Population) file(i int32) {
	t := p.tags[i]
	switch t.state {
	case StateReady:
		p.member[i] = false
	case StateArbitrate:
		p.due[i] = p.epoch + int64(max(t.slot, 1))
		p.heap = append(p.heap, i)
	default:
		p.replying = append(p.replying, i)
	}
}

func (p *Population) queryRep(q *QueryRep, replies []Reply, responders []int) ([]Reply, []int) {
	p.epoch++
	// Reply tags missed their ACK and fall back to Arbitrate at zero, due
	// at the next QueryRep; acknowledged tags finish and turn Ready.
	// Neither replies, so the list empties.
	for _, i := range p.replying {
		t := p.tags[i]
		t.handleQueryRep(q)
		if t.state == StateArbitrate {
			p.due[i] = p.epoch + 1
			p.push(i)
		} else {
			p.member[i] = false
		}
	}
	p.replying = p.replying[:0]
	for len(p.heap) > 0 && p.due[p.heap[0]] == p.epoch {
		i := p.pop()
		t := p.tags[i]
		if t.state != StateArbitrate {
			p.member[i] = false // power-reset since it was filed
			continue
		}
		// Sync to the epoch before this QueryRep: a live counter is at 1,
		// a zero one stays at zero and rolls over.
		if t.slot != 0 {
			t.slot = 1
		}
		if r := t.handleQueryRep(q); r.Kind != ReplyNone {
			replies = append(replies, r)
			responders = append(responders, int(i))
			p.replying = append(p.replying, i)
			continue
		}
		p.due[i] = p.epoch + int64(t.slot)
		p.push(i)
	}
	return replies, responders
}

func (p *Population) queryAdjust(q *QueryAdjust, replies []Reply, responders []int) ([]Reply, []int) {
	// Every indexed tag redraws (or, acknowledged, finishes), so the
	// index is rebuilt from the visit; stale counters need no sync, as
	// the redraw overwrites them.
	p.heap, p.replying = p.heap[:0], p.replying[:0]
	for i, ok := range p.member {
		if !ok {
			continue
		}
		if r := p.tags[i].handleQueryAdjust(q); r.Kind != ReplyNone {
			replies = append(replies, r)
			responders = append(responders, i)
		}
		p.file(int32(i))
	}
	p.heapify()
	return replies, responders
}

func (p *Population) ack(a *ACK, replies []Reply, responders []int) ([]Reply, []int) {
	n := 0
	for _, i := range p.replying {
		t := p.tags[i]
		if r := t.handleACK(a); r.Kind != ReplyNone {
			replies = append(replies, r)
			responders = append(responders, int(i))
		}
		switch t.state {
		case StateReady:
			p.member[i] = false
		case StateArbitrate:
			// A wrong RN16 sends the tag back at zero, due next QueryRep.
			p.due[i] = p.epoch + int64(max(t.slot, 1))
			p.push(i)
		default:
			p.replying[n] = i
			n++
		}
	}
	p.replying = p.replying[:n]
	return replies, responders
}

// less orders the heap by due epoch, then by index.
func (p *Population) less(a, b int32) bool {
	if p.due[a] != p.due[b] {
		return p.due[a] < p.due[b]
	}
	return a < b
}

// heapify restores the heap order once file has filed the population.
func (p *Population) heapify() {
	for k := len(p.heap)/2 - 1; k >= 0; k-- {
		p.down(k)
	}
}

// push adds tag i to the heap in heap order.
func (p *Population) push(i int32) {
	p.heap = append(p.heap, i)
	h := p.heap
	for k := len(h) - 1; k > 0; {
		parent := (k - 1) / 2
		if !p.less(h[k], h[parent]) {
			break
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

func (p *Population) pop() int32 {
	h := p.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	p.heap = h[:last]
	p.down(0)
	return top
}

func (p *Population) down(k int) {
	h := p.heap
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && p.less(h[r], h[c]) {
			c = r
		}
		if !p.less(h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}
