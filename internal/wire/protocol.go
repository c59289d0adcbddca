package wire

import (
	"fmt"
	"log"
	"strings"

	"netagg/internal/obs"
)

// This file is the declarative wire-protocol specification: one table
// (Protocol) mapping every frame type to the roles that send and receive
// it, and to whether the receiving handler must pass an epoch/sequence
// guard before mutating request state. Three consumers keep the receiver
// and guard columns honest:
//
//   - each role's protocol test (TestBoxHandlesEveryFrameItReceives,
//     TestMasterTakesGuardedFramesOnce, ...) reads the table, delivers
//     every frame to a real endpoint of the role over loopback, and
//     fails on a rule it has no case for,
//   - CheckReceive (protocol_check_debug.go) enforces the receiver
//     column on live frames under the netaggdebug build tag, and
//   - cmd/protogen renders ProtocolMatrix into DESIGN.md and fails CI
//     when the committed matrix drifts from this table.
//
// Adding a frame type therefore means adding a rule here first; the
// drift gate and the tests turn a forgotten handler into a test failure
// instead of a protocol-skew log line (wire.unexpected_frames). The
// "sent by" column is documentation: nothing checks a sender against it.
// What a receiver does with a frame's payload buffer is the Msg.Buf
// contract, checked at run time (DESIGN.md §13).

// Role identifies a protocol participant: which kind of node a frame
// handler runs on.
type Role uint8

const (
	// RoleWorker is the worker-side shim (shim.Worker): it streams
	// partial results towards boxes or the master and listens for
	// recovery control frames.
	RoleWorker Role = iota
	// RoleBox is the agg-box data plane (core.Box): it combines partial
	// results and forwards them down the aggregation tree.
	RoleBox
	// RoleMaster is the master-side shim's result listener
	// (shim.Master): it collects aggregated results and drives
	// straggler/failure recovery.
	RoleMaster
	// RoleMonitor is the failure detector's prober (cluster.Monitor):
	// it exchanges heartbeats with boxes.
	RoleMonitor
)

// String names the role in the protocol matrix and in diagnostics.
func (r Role) String() string {
	switch r {
	case RoleWorker:
		return "worker"
	case RoleBox:
		return "box"
	case RoleMaster:
		return "master"
	case RoleMonitor:
		return "monitor"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Rule is one frame type's protocol contract.
type Rule struct {
	// Type is the frame type the rule governs.
	Type Type
	// Name is the Go constant name ("TData"), the spelling the protocol
	// matrix and the protocol tests' messages use.
	Name string
	// Senders lists the roles that emit the frame; it is rendered in the
	// matrix and checked by nothing.
	Senders []Role
	// Receivers lists the roles whose dispatch switches must handle the
	// frame; a frame arriving anywhere else is a protocol violation.
	Receivers []Role
	// Guarded lists the receivers that must pass an epoch/sequence guard
	// (attempt check or per-source sequence check) before mutating
	// request state on this frame: recovery re-sends deliver a frame
	// more than once, and unguarded mutation would count it twice.
	Guarded []Role
	// Note is the one-line rationale rendered in the protocol matrix.
	Note string
}

// MayReceive reports whether the role's dispatch switch may (and must)
// handle this frame type.
func (r Rule) MayReceive(role Role) bool { return containsRole(r.Receivers, role) }

// GuardedAt reports whether the role must epoch/sequence-guard its state
// mutations for this frame type.
func (r Rule) GuardedAt(role Role) bool { return containsRole(r.Guarded, role) }

func containsRole(roles []Role, role Role) bool {
	for _, r := range roles {
		if r == role {
			return true
		}
	}
	return false
}

// Protocol returns the full protocol table in frame-type order. The
// slice and its rules are freshly built on each call; callers may keep
// or reorder them freely.
func Protocol() []Rule {
	return []Rule{
		{
			Type: THello, Name: "THello",
			Senders:   []Role{RoleWorker, RoleBox},
			Receivers: []Role{RoleBox},
			Note:      "opens a stream; the payload is the remaining route, decoded and copied on arrival",
		},
		{
			Type: TData, Name: "TData",
			Senders:   []Role{RoleWorker, RoleBox, RoleMaster},
			Receivers: []Role{RoleBox, RoleMaster},
			Guarded:   []Role{RoleBox, RoleMaster},
			Note:      "one canonical part of a partial result — a worker's part or a box's whole aggregate, never a byte range of one; taken only at its source's next Seq, so a re-sent stream's duplicates and the frames behind a gap are dropped (the master also sends TData for §5 fanout distribution, received by the extension's own listener)",
		},
		{
			Type: TEnd, Name: "TEnd",
			Senders:   []Role{RoleWorker, RoleBox},
			Receivers: []Role{RoleBox, RoleMaster},
			Guarded:   []Role{RoleBox, RoleMaster},
			Note:      "end of one source's stream; carries the Seq after its last TData (a box's forwarded aggregate ends at 1) and is taken only at that Seq, so a stream with a gap never ends",
		},
		{
			Type: TExpect, Name: "TExpect",
			Senders:   []Role{RoleMaster},
			Receivers: []Role{RoleBox},
			Note:      "announces the direct-source count for a request (varint payload); idempotent, and sent again when the master's connection to the box is lost",
		},
		{
			Type: TResult, Name: "TResult",
			Senders:   []Role{RoleBox},
			Receivers: []Role{RoleMaster},
			Guarded:   []Role{RoleMaster},
			Note:      "fully aggregated result from a chain root (Seq 0); the master's attempt+Seq checks drop stale and repeated deliveries",
		},
		{
			Type: THeartbeat, Name: "THeartbeat",
			Senders:   []Role{RoleMonitor, RoleBox},
			Receivers: []Role{RoleBox, RoleMonitor},
			Note:      "liveness probe (monitor→box) and its echo (box→monitor); the echo payload carries the box's load signal",
		},
		{
			Type: TRedirect, Name: "TRedirect",
			Senders:   []Role{RoleMaster},
			Receivers: []Role{RoleWorker},
			Guarded:   []Role{RoleWorker},
			Note:      "recovery resend order (varint attempt payload); the worker's lastAttempt check dedups the straggler-timer/monitor race",
		},
		{
			Type: TError, Name: "TError",
			Senders:   []Role{RoleBox},
			Receivers: []Role{RoleMaster},
			Guarded:   []Role{RoleMaster},
			Note:      "fatal per-request aggregation error; the message is copied into the delivered Result",
		},
		{
			Type: TCancel, Name: "TCancel",
			Senders:   []Role{RoleMaster},
			Receivers: []Role{RoleBox},
			Note:      "discard a superseded epoch's partial state; idempotent (unknown requests are a no-op)",
		},
		{
			Type: TDone, Name: "TDone",
			Senders:   []Role{RoleMaster},
			Receivers: []Role{RoleWorker},
			Note:      "ended requests of one application, batched per worker (varint count + ids); the worker drops their retained sends; idempotent (unknown or expired ids are a no-op)",
		},
		{
			Type: TFanout, Name: "TFanout",
			Senders:   []Role{RoleMaster, RoleBox},
			Receivers: []Role{RoleBox},
			Note:      "one-to-many distribution envelope (§5 extension); the box re-encodes or forwards per next hop within the call",
		},
	}
}

// RuleFor returns the protocol rule for a frame type.
func RuleFor(t Type) (Rule, bool) {
	for _, r := range Protocol() {
		if r.Type == t {
			return r, true
		}
	}
	return Rule{}, false
}

// MayReceive reports whether the role may receive the frame type. An
// unknown frame type may not be received by anyone.
func MayReceive(role Role, t Type) bool {
	r, ok := RuleFor(t)
	return ok && r.MayReceive(role)
}

// obsUnexpected counts frames that reached a role's default dispatch arm
// (DESIGN.md §11): protocol skew between a sender and its receiver.
var obsUnexpected = obs.C("wire.unexpected_frames")

// Unexpected is every role's default dispatch arm: a frame the role does
// not receive is counted and logged, then dropped by the caller. Under
// netaggdebug CheckReceive panics on such a frame before it gets here.
func Unexpected(role Role, m *Msg) {
	obsUnexpected.Inc()
	log.Printf("wire: %s dropping unexpected %s frame for request %d", role, m.Type, m.Req)
}

// receiverNames renders a rule's receiver list for diagnostics
// ("(none)" for frame types the table does not know).
func receiverNames(t Type) string {
	r, ok := RuleFor(t)
	if !ok || len(r.Receivers) == 0 {
		return "(none)"
	}
	names := make([]string, len(r.Receivers))
	for i, role := range r.Receivers {
		names[i] = role.String()
	}
	return strings.Join(names, ", ")
}

// ProtocolMatrix renders the protocol table as a GitHub-flavoured
// markdown table. cmd/protogen embeds it in DESIGN.md between the
// protogen markers and CI fails when the committed copy drifts.
func ProtocolMatrix() string {
	var b strings.Builder
	b.WriteString("| frame | sent by | received by | epoch/sequence guard | notes |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range Protocol() {
		fmt.Fprintf(&b, "| `%s` (%s) | %s | %s | %s | %s |\n",
			r.Name, r.Type,
			roleList(r.Senders), roleList(r.Receivers), roleList(r.Guarded), r.Note)
	}
	return b.String()
}

// roleList renders a role slice for the matrix ("—" when empty).
func roleList(roles []Role) string {
	if len(roles) == 0 {
		return "—"
	}
	names := make([]string, len(roles))
	for i, r := range roles {
		names[i] = r.String()
	}
	return strings.Join(names, ", ")
}
