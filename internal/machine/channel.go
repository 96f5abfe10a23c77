package machine

import (
	"errors"
	"fmt"
)

// Channels as first-class locations. A channel location owns two bounded
// message queues in addition to (and independent of) its plain value and
// l-buffer: pending holds messages that have been sent but not yet handed to
// the receiver, inbox holds messages the delivery adversary has committed to
// an order. The split makes delivery an explicit, branchable step: the sim
// layer enumerates which pending message is delivered (or dropped) next, so
// reordering and loss are part of the explored state space instead of an
// assumption about the network.
//
// Channel contents fold into every canonical key the explorer uses — the
// incremental Fingerprint64/Fingerprint128 rolls (channel instructions are
// non-trivial, so the per-instruction XOR hooks fire automatically) and the
// orbit-canonical SymFingerprint64 (cellHash covers the queues) — which is
// what lets fork pooling, dedup, symmetry, parallel strategies, compacted
// tables, and spilling apply to message-passing systems unchanged.

// ErrChanBlocked is returned when a channel instruction cannot proceed: a
// send on a full channel, a recv on an empty inbox, or a deliver/drop rank
// outside the pending queue. The sim layer gates enabledness so exploration
// never applies a blocked channel instruction; seeing this error means a
// scheduler or stepper bug.
var ErrChanBlocked = errors.New("machine: channel operation blocked")

// ChanKind selects a channel location's pending-queue discipline.
type ChanKind uint8

const (
	// ChanNone marks an ordinary (non-channel) location.
	ChanNone ChanKind = iota
	// ChanFIFO keeps pending messages in send order; under ordered delivery
	// only the oldest is deliverable, under reordering delivery any is.
	ChanFIFO
	// ChanBag treats pending as an unordered multiset: the canonical
	// encodings sort pending by message hash, so two bags holding the same
	// multiset in different physical orders fingerprint identically.
	ChanBag
)

func (k ChanKind) String() string {
	switch k {
	case ChanFIFO:
		return "fifo"
	case ChanBag:
		return "bag"
	default:
		return "none"
	}
}

// ChannelSpec declares one location as a channel: its index, queue
// discipline, and capacity (the bound on pending+inbox messages in flight;
// a send against a full channel blocks).
type ChannelSpec struct {
	Loc  int
	Kind ChanKind
	Cap  int
}

// WithChannels declares channel locations at construction time. Kind and
// capacity are structural — fixed for the exploration, excluded from state
// hashing the same way buffer capacities are.
func WithChannels(specs []ChannelSpec) Option {
	return func(m *Memory) {
		for _, sp := range specs {
			if sp.Loc < 0 || sp.Loc >= len(m.locs) {
				panic(fmt.Sprintf("machine: WithChannels location %d out of range", sp.Loc))
			}
			if sp.Kind == ChanNone {
				panic(fmt.Sprintf("machine: WithChannels location %d with kind none", sp.Loc))
			}
			if sp.Cap < 1 {
				panic(fmt.Sprintf("machine: WithChannels location %d with capacity %d", sp.Loc, sp.Cap))
			}
			m.locs[sp.Loc].chanKind = sp.Kind
			m.locs[sp.Loc].chanCap = sp.Cap
		}
	}
}

// ChannelKind reports the channel discipline of location loc (ChanNone for
// ordinary locations and out-of-range indices).
func (m *Memory) ChannelKind(loc int) ChanKind {
	if loc < 0 || loc >= len(m.locs) {
		return ChanNone
	}
	return m.locs[loc].chanKind
}

// ChannelCap reports the capacity of channel location loc (0 otherwise).
func (m *Memory) ChannelCap(loc int) int {
	if loc < 0 || loc >= len(m.locs) {
		return 0
	}
	return m.locs[loc].chanCap
}

// PendingLen reports how many sent-but-undelivered messages channel loc
// holds, without counting as a step.
func (m *Memory) PendingLen(loc int) int {
	if loc < 0 || loc >= len(m.locs) {
		return 0
	}
	return len(m.locs[loc].pending)
}

// InboxLen reports how many delivered-but-unreceived messages channel loc
// holds, without counting as a step.
func (m *Memory) InboxLen(loc int) int {
	if loc < 0 || loc >= len(m.locs) {
		return 0
	}
	return len(m.locs[loc].inbox)
}

// ChanFull reports whether a send on channel loc would block (pending+inbox
// at capacity). False for non-channel locations, where sends error instead.
func (m *Memory) ChanFull(loc int) bool {
	if loc < 0 || loc >= len(m.locs) {
		return false
	}
	l := &m.locs[loc]
	return l.chanKind != ChanNone && len(l.pending)+len(l.inbox) >= l.chanCap
}

// AppendChannelLocs appends the indices of all channel locations and returns
// the extended slice; the sim layer uses it to lay out delivery branches.
func (m *Memory) AppendChannelLocs(dst []int) []int {
	for i := range m.locs {
		if m.locs[i].chanKind != ChanNone {
			dst = append(dst, i)
		}
	}
	return dst
}

// applyChan executes the four channel instructions; called from applyOp with
// the location already materialized.
func (m *Memory) applyChan(loc int, l *location, op Op, args []Value) (Value, error) {
	if l.chanKind == ChanNone {
		return nil, fmt.Errorf("%w: %v on non-channel location %d", ErrBadOperand, op, loc)
	}
	switch op {
	case OpChanSend:
		if len(l.pending)+len(l.inbox) >= l.chanCap {
			return nil, fmt.Errorf("%w: send on full channel %d (cap %d)", ErrChanBlocked, loc, l.chanCap)
		}
		// Below capacity, so the window keeps every message.
		l.pending = pushWindow(l.pending, normValue(args[0]), l.chanCap)
		return nil, nil

	case OpChanRecv:
		if len(l.inbox) == 0 {
			return nil, fmt.Errorf("%w: recv on empty inbox of channel %d", ErrChanBlocked, loc)
		}
		msg := l.inbox[0]
		l.inbox = withoutRank(l.inbox, 0)
		return msg, nil

	case OpChanDeliver, OpChanDrop:
		rank, ok := asWord(args[0])
		if !ok || rank < 0 || int(rank) >= len(l.pending) {
			return nil, fmt.Errorf("%w: %v rank %v on channel %d with %d pending",
				ErrChanBlocked, op, args[0], loc, len(l.pending))
		}
		msg := l.pending[rank]
		l.pending = withoutRank(l.pending, int(rank))
		if op == OpChanDeliver {
			l.inbox = pushWindow(l.inbox, msg, l.chanCap)
		}
		return msg, nil

	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, op)
	}
}
