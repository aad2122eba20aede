package coord

import "repro/internal/wire"

// The session-lifecycle transactions as owned buffers, for tests that
// apply them to a state machine directly.

func encodeNewSessionTxn() []byte { return []byte{opNewSession} }

func encodeCloseSessionTxn(session, seq uint64) []byte {
	var w wire.Writer
	appendCloseSessionTxn(&w, session, seq)
	return w.Bytes()
}
