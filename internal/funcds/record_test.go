package funcds

import (
	"bytes"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

func TestRecordEncodeDecodeRoundtrip(t *testing.T) {
	cases := []struct {
		prev       pmem.Addr
		kind, a, b uint64
	}{
		{pmem.Nil, RecMapSet, 0x1000, 0},
		{0x40, RecMapDelete, 0x1000, 0},
		{0x40, RecVecPush, 12345, 0},
		{0x40, RecVecUpdate, 7, 99},
		{0x40, RecStackPush, 42, 0},
		{0x40, RecStackPop, 0, 0},
		{0x40, RecQueuePush, 17, 0},
		{0x40, RecQueuePop, 0, 0},
	}
	for _, c := range cases {
		buf := EncodeRecord(c.prev, c.kind, c.a, c.b)
		prev, kind, a, b, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", c.kind, err)
		}
		if prev != c.prev || kind != c.kind || a != c.a || b != c.b {
			t.Fatalf("kind %d: roundtrip (%#x,%d,%d,%d) != (%#x,%d,%d,%d)",
				c.kind, uint64(prev), kind, a, b, uint64(c.prev), c.kind, c.a, c.b)
		}
	}
}

func TestRecordDecodeRejectsInvalid(t *testing.T) {
	reject := [][]byte{
		EncodeRecord(pmem.Nil, 0, 0, 0),                 // kind 0 reserved
		EncodeRecord(pmem.Nil, RecQueuePop+1, 0, 0),     // kind out of range
		EncodeRecord(pmem.Nil, ^uint64(0), 1, 2),        // absurd kind
		EncodeRecord(pmem.Nil, RecMapSet, 0, 0),         // map set without binding
		EncodeRecord(pmem.Nil, RecMapDelete, 0, 0),      // map delete without binding
		EncodeRecord(pmem.Nil, RecMapSet, 0x1000, 0x20), // second operand (a v13 value blob)
		EncodeRecord(pmem.Nil, RecMapDelete, 0x1000, 8), // second operand
		EncodeRecord(pmem.Nil, RecStackPop, 1, 0),       // pop with operand
		EncodeRecord(pmem.Nil, RecQueuePop, 0, 2),       // pop with operand
		EncodeRecord(pmem.Nil, RecVecPush, 0, 0)[:8],    // truncated
		nil, // empty
	}
	for i, buf := range reject {
		if _, _, _, _, err := DecodeRecord(buf); err == nil {
			t.Fatalf("case %d: DecodeRecord accepted invalid record %x", i, buf)
		}
	}
}

// FuzzRecoveryRecord fuzzes the recovery-replay decoder both ways: raw
// bytes must never panic and must either be rejected or re-encode to the
// same canonical bytes; valid encodings must roundtrip.
func FuzzRecoveryRecord(f *testing.F) {
	f.Add(EncodeRecord(pmem.Nil, RecMapSet, 0x1000, 0))
	f.Add(EncodeRecord(0x40, RecVecUpdate, 7, 99))
	f.Add(EncodeRecord(0x40, RecStackPop, 0, 0))
	f.Add(make([]byte, recordSize))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		prev, kind, a, b, err := DecodeRecord(buf)
		if err != nil {
			return
		}
		if kind == 0 || kind > recKindMax {
			t.Fatalf("decoder passed out-of-range kind %d", kind)
		}
		re := EncodeRecord(prev, kind, a, b)
		if !bytes.Equal(re, buf[:recordSize]) {
			t.Fatalf("re-encode mismatch: %x != %x", re, buf[:recordSize])
		}
		p2, k2, a2, b2, err := DecodeRecord(re)
		if err != nil || p2 != prev || k2 != kind || a2 != a || b2 != b {
			t.Fatalf("canonical roundtrip failed: %v", err)
		}
	})
}
