package sim

import (
	"fmt"

	"repro/internal/machine"
)

// The delivery model. A memory with channel locations (machine.WithChannels)
// splits message transport into an explicit adversary step: sends park
// messages in a channel's pending queue, and a *delivery branch* — a virtual
// process id at or above N() — moves one chosen pending message to the inbox
// (or, under lossy delivery, drops it). Virtual pids flow through the same
// Live/AppendLive/Step surface as real processes, so every scheduler and all
// three explorer strategies branch over delivery choices with zero changes:
// to them, the network is just more enabled pids.
//
// Virtual pid layout (a pure function of the system's channel structure, so
// replay, spilling, and rematerialization agree across forks):
//
//	pid = N() + k*stride + j          deliver rank j of channel chanLocs[k]
//	pid = N() + K*stride + k*stride + j   drop rank j of channel chanLocs[k]
//
// where K = len(chanLocs) and stride = the maximum channel capacity. A
// virtual pid is live exactly while its (channel, rank) choice is enabled
// under the system's delivery mode, so the enabled set — and with it the
// branching factor — is always the precise set of distinct adversary moves.

// DeliverMode selects which pending-message choices the delivery adversary
// may take.
type DeliverMode uint8

const (
	// DeliverOrdered delivers FIFO channels strictly in send order (only
	// rank 0 is enabled); bag channels, having no order, still deliver any
	// rank. No drops. The default for systems with channels.
	DeliverOrdered DeliverMode = iota
	// DeliverReorder delivers any pending rank of any channel: the
	// adversary controls interleaving and per-channel order. No drops.
	DeliverReorder
	// DeliverLossy is DeliverReorder plus message loss: the adversary may
	// additionally drop any pending message, up to MaxDrops total across
	// the run. Bounding drops keeps the state space finite and makes
	// f-resilience sweeps expressible ("safe under up to k lost messages").
	DeliverLossy
)

func (m DeliverMode) String() string {
	switch m {
	case DeliverOrdered:
		return "ordered"
	case DeliverReorder:
		return "reorder"
	case DeliverLossy:
		return "lossy"
	default:
		return fmt.Sprintf("deliver(%d)", uint8(m))
	}
}

// Delivery is the delivery adversary's contract for one system: the mode and
// (lossy only) the total drop budget.
type Delivery struct {
	Mode     DeliverMode
	MaxDrops int
}

// WithDelivery selects the delivery model for a system whose memory has
// channel locations. Systems without channels ignore it; systems with
// channels default to DeliverOrdered.
func WithDelivery(d Delivery) SystemOption {
	return func(s *System) { s.deliver = d }
}

// initChannels scans the memory for channel locations and lays out the
// virtual pid space. Called once at construction; the layout is structural
// and shared by forks.
func (s *System) initChannels() {
	s.chanLocs = s.mem.AppendChannelLocs(nil)
	s.chanStride = 0
	for _, loc := range s.chanLocs {
		if c := s.mem.ChannelCap(loc); c > s.chanStride {
			s.chanStride = c
		}
	}
	s.ranks = make([]machine.Value, s.chanStride)
	for j := range s.ranks {
		s.ranks[j] = machine.Word(int64(j))
	}
}

// hasChans reports whether the system has any channel locations (and thus a
// delivery pid space).
func (s *System) hasChans() bool { return len(s.chanLocs) > 0 }

// Delivery returns the system's delivery model.
func (s *System) Delivery() Delivery { return s.deliver }

// DropsUsed reports how many messages the lossy adversary has dropped.
func (s *System) DropsUsed() int { return s.dropsUsed }

// MaxPid returns the exclusive upper bound of the pid space: N() for pure
// shared-memory systems, N() + 2*K*stride with channels. Schedulers need
// only AppendLive; this exists for diagnostics and tests.
func (s *System) MaxPid() int {
	return len(s.procs) + 2*len(s.chanLocs)*s.chanStride
}

// deliveryChoice decodes a virtual pid into its adversary move. ok is false
// for pids outside the virtual space.
func (s *System) deliveryChoice(pid int) (op machine.Op, loc, rank int, ok bool) {
	v := pid - len(s.procs)
	span := len(s.chanLocs) * s.chanStride
	if v < 0 || v >= 2*span || span == 0 {
		return 0, 0, 0, false
	}
	op = machine.OpChanDeliver
	if v >= span {
		op, v = machine.OpChanDrop, v-span
	}
	return op, s.chanLocs[v/s.chanStride], v % s.chanStride, true
}

// DeliveryTarget reports the channel location a virtual delivery (or drop)
// pid acts on. ok is false for real pids and pids outside the virtual
// space. Schedulers that model partitions use it to tell which side of the
// network a pending adversary move belongs to.
func (s *System) DeliveryTarget(pid int) (loc int, ok bool) {
	_, loc, _, ok = s.deliveryChoice(pid)
	return loc, ok
}

// deliveryLive reports whether virtual pid names an enabled adversary move
// under the current configuration and delivery mode.
func (s *System) deliveryLive(pid int) bool {
	op, loc, rank, ok := s.deliveryChoice(pid)
	if !ok || rank >= s.mem.PendingLen(loc) {
		return false
	}
	if op == machine.OpChanDrop {
		return s.deliver.Mode == DeliverLossy && s.dropsUsed < s.deliver.MaxDrops
	}
	if s.deliver.Mode == DeliverOrdered && s.mem.ChannelKind(loc) == machine.ChanFIFO {
		return rank == 0
	}
	return true
}

// appendDeliveryLive appends the enabled virtual pids (ascending) to dst.
func (s *System) appendDeliveryLive(dst []int) []int {
	base := len(s.procs)
	ordered := s.deliver.Mode == DeliverOrdered
	lossy := s.deliver.Mode == DeliverLossy && s.dropsUsed < s.deliver.MaxDrops
	span := len(s.chanLocs) * s.chanStride
	for k, loc := range s.chanLocs {
		pending := s.mem.PendingLen(loc)
		if pending == 0 {
			continue
		}
		if ordered && s.mem.ChannelKind(loc) == machine.ChanFIFO {
			pending = 1
		}
		for j := 0; j < pending; j++ {
			dst = append(dst, base+k*s.chanStride+j)
		}
	}
	if lossy {
		for k, loc := range s.chanLocs {
			pending := s.mem.PendingLen(loc)
			for j := 0; j < pending; j++ {
				dst = append(dst, base+span+k*s.chanStride+j)
			}
		}
	}
	return dst
}

// procEnabled reports whether a live real process's poised instruction can
// execute now: a send against a full channel or a recv from an empty inbox
// is blocked, exactly like a mutex-waiter, and stays out of the live set
// until the adversary (or a receiver) unblocks it.
func (s *System) procEnabled(ps *procState) bool {
	if !ps.live() {
		return false
	}
	if len(s.chanLocs) == 0 {
		return true
	}
	info := ps.st.Poise()
	if info.Multi != nil {
		return true
	}
	switch info.Op {
	case machine.OpChanSend:
		return !s.mem.ChanFull(info.Loc)
	case machine.OpChanRecv:
		return s.mem.InboxLen(info.Loc) > 0
	}
	return true
}

// stepDelivery executes one adversary move named by a virtual pid: applies
// the deliver/drop to memory (which rolls the incremental fingerprints like
// any instruction) and accounts the step. Process-local state is untouched,
// so no hash contribution goes stale. The argument slice is a clipped view
// of the shared ranks table, used for both the instruction and the
// step written to out (see System.step), so no argument is allocated per
// step.
func (s *System) stepDelivery(pid int, out *StepInfo) error {
	if !s.deliveryLive(pid) {
		return fmt.Errorf("%w: delivery pid %d", ErrNotLive, pid)
	}
	op, loc, rank, _ := s.deliveryChoice(pid)
	args := s.ranks[rank : rank+1 : rank+1]
	res, err := s.mem.Apply(loc, op, args...)
	if err != nil {
		// Unreachable if deliveryLive gated correctly; surface as a system
		// error rather than attributing it to a process.
		return fmt.Errorf("sim: delivery on channel %d: %w", loc, err)
	}
	if op == machine.OpChanDrop {
		s.dropsUsed++
	}
	s.steps++
	if out != nil || s.tracing {
		step := StepInfo{PID: pid, Info: OpInfo{Loc: loc, Op: op, Args: args}, Result: res}
		if s.tracing {
			s.trace = append(s.trace, step)
		}
		if out != nil {
			*out = step
		}
	}
	return nil
}

// Send returns the OpInfo for sending msg on channel loc, for steppers
// assembling poised instructions.
func Send(loc int, msg machine.Value) OpInfo {
	return OpInfo{Loc: loc, Op: machine.OpChanSend, Args: []machine.Value{msg}}
}

// Recv returns the OpInfo for receiving from channel loc.
func Recv(loc int) OpInfo {
	return OpInfo{Loc: loc, Op: machine.OpChanRecv}
}

// Send performs one channel send from a function-shaped process body.
func (p *Proc) Send(loc int, msg machine.Value) {
	p.submit(Send(loc, msg))
}

// Recv performs one channel receive from a function-shaped process body,
// returning the received message. The process blocks (is descheduled) while
// the inbox is empty.
func (p *Proc) Recv(loc int) machine.Value {
	return p.submit(Recv(loc))
}
