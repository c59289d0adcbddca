//go:build netaggdebug

package wire

import "fmt"

// CheckReceive is the protocol table's assertion on live frames: under
// the netaggdebug build tag every role's dispatch loop asserts, per
// frame, that its role is listed in the table's receiver column. A violation panics with the
// rule, so protocol skew between sender and receiver fails a debug run
// loudly instead of being logged and limped past. Release builds get
// the empty version in protocol_check_off.go, which the compiler
// erases.
func CheckReceive(role Role, m *Msg) {
	if m == nil {
		return
	}
	if !MayReceive(role, m.Type) {
		panic(fmt.Sprintf("wire: protocol violation: role %s received a %s frame (allowed receivers: %s)",
			role, m.Type, receiverNames(m.Type)))
	}
}
