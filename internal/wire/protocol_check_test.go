//go:build netaggdebug

package wire

import (
	"strings"
	"testing"
)

// Under the netaggdebug tag CheckReceive must panic on a frame arriving
// at a role the protocol table does not list as a receiver, and stay
// silent on a legal delivery.
func TestCheckReceivePanicsOnViolation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CheckReceive did not panic on a worker receiving TData")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "protocol violation") || !strings.Contains(msg, "worker") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	CheckReceive(RoleWorker, &Msg{Type: TData})
}

func TestCheckReceiveAllowsLegalFrames(t *testing.T) {
	CheckReceive(RoleBox, &Msg{Type: TData})
	CheckReceive(RoleMaster, &Msg{Type: TResult})
	CheckReceive(RoleWorker, &Msg{Type: TRedirect})
	CheckReceive(RoleWorker, &Msg{Type: TDone})
	CheckReceive(RoleMonitor, &Msg{Type: THeartbeat})
	CheckReceive(RoleBox, nil)
}
