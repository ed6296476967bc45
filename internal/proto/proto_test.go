package proto

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/aplusdb/aplus"
)

// TestSentinelsSurviveTheWire encodes every sentinel the protocol maps to
// its wire code and decodes it back: errors.Is must still match, even when
// the server wrapped the sentinel in context first.
func TestSentinelsSurviveTheWire(t *testing.T) {
	for _, tc := range []struct {
		sentinel error
		code     string
	}{
		{aplus.ErrQueryCanceled, CodeCanceled},
		{aplus.ErrQueryTimeout, CodeTimeout},
		{aplus.ErrBudgetExceeded, CodeBudget},
		{aplus.ErrAdmissionRejected, CodeAdmission},
		{aplus.ErrQueryPanic, CodePanic},
		{aplus.ErrDegraded, CodeDegraded},
		{aplus.ErrClosed, CodeClosed},
		{ErrBackpressure, CodeBackpressure},
	} {
		served := fmt.Errorf("serving request: %w", tc.sentinel)
		code := ErrorCode(served)
		if code != tc.code {
			t.Errorf("%v: encoded as %q, want %q", tc.sentinel, code, tc.code)
			continue
		}
		got := SentinelError(code, served.Error())
		if !errors.Is(got, tc.sentinel) {
			t.Errorf("%v: decoded %v does not match its sentinel", tc.sentinel, got)
		}
		if !strings.Contains(got.Error(), served.Error()) {
			t.Errorf("%v: decoded %q lost the server's message", tc.sentinel, got)
		}
	}
}

// TestUnknownCodeDecodesPlain pins that a code the client does not know —
// including the server's own bad_request/internal codes — decodes to a
// plain error carrying code and message, matching no sentinel.
func TestUnknownCodeDecodesPlain(t *testing.T) {
	sentinels := []error{
		aplus.ErrQueryCanceled, aplus.ErrQueryTimeout, aplus.ErrBudgetExceeded,
		aplus.ErrAdmissionRejected, aplus.ErrQueryPanic, aplus.ErrDegraded,
		aplus.ErrClosed, ErrBackpressure,
	}
	for _, code := range []string{"no_such_code", "", CodeBadRequest, CodeInternal} {
		err := SentinelError(code, "boom")
		if err == nil {
			t.Fatalf("code %q decoded to nil", code)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("code %q: %q lost the message", code, err)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				t.Errorf("code %q decoded to an error matching %v", code, s)
			}
		}
	}
	if got := ErrorCode(errors.New("plain")); got != CodeInternal {
		t.Errorf("plain error encoded as %q, want %q", got, CodeInternal)
	}
	if got := ErrorCode(nil); got != "" {
		t.Errorf("nil error encoded as %q, want empty", got)
	}
}
