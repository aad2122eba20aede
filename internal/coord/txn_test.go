package coord

import (
	"repro/internal/coord/znode"
	"repro/internal/wire"
)

// The transactions as owned buffers, for tests that apply them to a
// state machine directly.

func encodeNewSessionTxn() []byte { return []byte{opNewSession} }

func encodeCloseSessionTxn(session, seq uint64) []byte {
	var w wire.Writer
	appendCloseSessionTxn(&w, session, seq)
	return w.Bytes()
}

func encodeCreateTxn(path string, data []byte, mode znode.CreateMode, session, seq uint64, nowNano int64) []byte {
	var w wire.Writer
	appendCreateTxn(&w, path, data, mode, session, seq, nowNano)
	return w.Bytes()
}

func encodeSetTxn(path string, data []byte, version int32, session, seq uint64, nowNano int64) []byte {
	var w wire.Writer
	appendSetTxn(&w, path, data, version, session, seq, nowNano)
	return w.Bytes()
}

func encodeMultiTxn(ops []Op, session, seq uint64, nowNano int64) []byte {
	var w wire.Writer
	appendMultiTxn(&w, ops, session, seq, nowNano)
	return w.Bytes()
}
