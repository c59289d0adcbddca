package wire

import (
	"strings"
	"testing"
)

// allTypes maps every defined frame type constant to its Go spelling;
// the protocol table must cover each one under exactly that name, the
// one the matrix and the protocol tests' messages print.
var allTypes = map[Type]string{
	THello:     "THello",
	TData:      "TData",
	TEnd:       "TEnd",
	TExpect:    "TExpect",
	TResult:    "TResult",
	THeartbeat: "THeartbeat",
	TRedirect:  "TRedirect",
	TError:     "TError",
	TCancel:    "TCancel",
	TDone:      "TDone",
	TFanout:    "TFanout",
}

// The byte a frame type encodes as is wire format: removing a type must
// retire its value, never renumber its successors.
func TestFrameTypeValuesPinned(t *testing.T) {
	want := map[Type]uint8{
		THello: 1, TData: 2, TEnd: 3, TExpect: 4, TResult: 5, THeartbeat: 6,
		TRedirect: 7, TError: 9, TCancel: 10, TDone: 11, TFanout: 100,
	}
	for ft := range allTypes {
		if v, ok := want[ft]; !ok || uint8(ft) != v {
			t.Errorf("%s encodes as %d; want %d (pinned: %v)", ft, uint8(ft), v, ok)
		}
	}
}

func TestProtocolCoversAllFrameTypes(t *testing.T) {
	rules := Protocol()
	byType := make(map[Type]Rule, len(rules))
	for _, r := range rules {
		if _, dup := byType[r.Type]; dup {
			t.Errorf("duplicate rule for frame type %s", r.Type)
		}
		byType[r.Type] = r
	}
	for ft, name := range allTypes {
		r, ok := byType[ft]
		if !ok {
			t.Errorf("no protocol rule for frame type %s", ft)
			continue
		}
		if r.Name != name {
			t.Errorf("rule for %s has Name %q; want the constant name %q", ft, r.Name, name)
		}
	}
	if len(rules) != len(allTypes) {
		t.Errorf("protocol table has %d rules; want %d (one per frame type)", len(rules), len(allTypes))
	}
}

func TestProtocolRuleInvariants(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range Protocol() {
		if r.Name == "" {
			t.Errorf("rule for %s has empty Name", r.Type)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true

		// Guarded only makes sense for roles that can receive the frame
		// in the first place.
		for _, g := range r.Guarded {
			if !r.MayReceive(g) {
				t.Errorf("%s: guarded role %s is not a receiver", r.Name, g)
			}
		}
		// A frame someone receives must have at least one sender, and
		// vice versa.
		if (len(r.Senders) == 0) != (len(r.Receivers) == 0) {
			t.Errorf("%s: senders=%v receivers=%v; both must be empty (reserved) or both populated",
				r.Name, r.Senders, r.Receivers)
		}
	}
}

func TestRoleString(t *testing.T) {
	for role, want := range map[Role]string{RoleWorker: "worker", RoleBox: "box", RoleMaster: "master", RoleMonitor: "monitor"} {
		if got := role.String(); got != want {
			t.Errorf("Role(%d).String() = %q; want %q", uint8(role), got, want)
		}
	}
	if s := Role(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown role String() = %q; want it to surface the raw value", s)
	}
}

func TestMayReceive(t *testing.T) {
	cases := []struct {
		role    Role
		t       Type
		receive bool
	}{
		{RoleWorker, TData, false},
		{RoleBox, TData, true},
		{RoleMaster, TResult, true},
		{RoleBox, TResult, false},
		{RoleWorker, TRedirect, true},
		{RoleMaster, TRedirect, false},
		{RoleWorker, TDone, true},
		{RoleMaster, TDone, false},
		{RoleBox, TDone, false},
		{RoleMonitor, THeartbeat, true},
		{RoleWorker, Type(8), false},   // the retired slot after TRedirect
		{RoleMaster, Type(200), false}, // unknown frame type
	}
	for _, c := range cases {
		if got := MayReceive(c.role, c.t); got != c.receive {
			t.Errorf("MayReceive(%s, %s) = %v; want %v", c.role, c.t, got, c.receive)
		}
	}
}

func TestProtocolMatrixDeterministicAndComplete(t *testing.T) {
	m1 := ProtocolMatrix()
	m2 := ProtocolMatrix()
	if m1 != m2 {
		t.Fatal("ProtocolMatrix is not deterministic across calls")
	}
	for _, r := range Protocol() {
		if !strings.Contains(m1, "`"+r.Name+"`") {
			t.Errorf("matrix is missing rule %s", r.Name)
		}
	}
	lines := strings.Split(strings.TrimRight(m1, "\n"), "\n")
	if want := 2 + len(Protocol()); len(lines) != want {
		t.Errorf("matrix has %d lines; want %d (header + separator + one per rule)", len(lines), want)
	}
	if strings.Contains(m1, "role(") {
		t.Error("matrix contains an unnamed role")
	}
}

func TestReceiverNames(t *testing.T) {
	if got := receiverNames(TData); got != "box, master" {
		t.Errorf("receiverNames(TData) = %q; want \"box, master\"", got)
	}
	if got := receiverNames(Type(200)); got != "(none)" {
		t.Errorf("receiverNames(unknown) = %q; want \"(none)\"", got)
	}
}
