package rsm

import (
	"procgroup/internal/transport"
)

// KV is the replicated key-value state machine behind examples/kvstore
// and the kv benchmark: string keys and values, last-writer-wins under
// the broadcast total order. Commands are the compact byte encodings of
// EncodePut and EncodeGet. Not safe for concurrent use on its own — a
// Node drives it from the event loop.
type KV struct {
	m map[string]string
}

// NewKV builds an empty store.
func NewKV() *KV { return &KV{m: make(map[string]string)} }

// Command opcodes (first byte of a command encoding).
const (
	cmdPut = 'P'
	cmdGet = 'G'
)

// EncodePut encodes a write command: key := val.
func EncodePut(key, val string) []byte {
	b := make([]byte, 0, 3+len(key)+len(val))
	b = append(b, cmdPut, byte(len(key)>>8), byte(len(key)))
	b = append(b, key...)
	return append(b, val...)
}

// EncodeGet encodes a read command for key.
func EncodeGet(key string) []byte {
	b := make([]byte, 0, 1+len(key))
	b = append(b, cmdGet)
	return append(b, key...)
}

// DecodeCmd splits a command encoding back into opcode, key and (for
// puts) value. ok is false on malformed input.
func DecodeCmd(cmd []byte) (write bool, key, val string, ok bool) {
	if len(cmd) == 0 {
		return false, "", "", false
	}
	switch cmd[0] {
	case cmdPut:
		if len(cmd) < 3 {
			return false, "", "", false
		}
		kl := int(cmd[1])<<8 | int(cmd[2])
		if len(cmd) < 3+kl {
			return false, "", "", false
		}
		return true, string(cmd[3 : 3+kl]), string(cmd[3+kl:]), true
	case cmdGet:
		return false, string(cmd[1:]), "", true
	}
	return false, "", "", false
}

// Apply implements StateMachine: puts store and echo the value, gets
// return the current value (empty for a missing key).
func (k *KV) Apply(cmd []byte) []byte {
	write, key, val, ok := DecodeCmd(cmd)
	if !ok {
		return nil
	}
	if write {
		k.m[key] = val
		return []byte(val)
	}
	return []byte(k.m[key])
}

// Len reports the number of keys.
func (k *KV) Len() int { return len(k.m) }

// Get reads a key directly (tests; not part of the replicated path).
func (k *KV) Get(key string) string { return k.m[key] }

// ReadLocal implements LocalReader: a Get command is served straight from
// local state (the Node fences it on stability); anything else must enter
// the total order.
func (k *KV) ReadLocal(cmd []byte) ([]byte, bool) {
	write, key, _, ok := DecodeCmd(cmd)
	if !ok || write {
		return nil, false
	}
	return []byte(k.m[key]), true
}

// Snapshot implements StateMachine on the repo's binary wire codec:
// uvarint entry count, then per entry a length-prefixed key and value.
// ViewSync snapshots grow with KV size, so this rides the same compact
// primitives as every other hot-path frame.
func (k *KV) Snapshot() []byte {
	var e transport.Encoder
	e.Uvarint(uint64(len(k.m)))
	for key, val := range k.m {
		e.String(key)
		e.String(val)
	}
	return e.Bytes()
}

// Restore implements StateMachine. A malformed snapshot restores the
// longest well-formed prefix (truncation is stream corruption; the joiner
// re-syncs on the next view anyway).
func (k *KV) Restore(snap []byte) {
	d := transport.NewDecoder(snap)
	n := d.Count(2) // min entry: two 1-byte length prefixes
	m := make(map[string]string, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		key := d.String()
		val := d.String()
		if d.Err() != nil {
			break
		}
		m[key] = val
	}
	k.m = m
}
