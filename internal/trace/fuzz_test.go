package trace

import (
	"bytes"
	"testing"
)

// FuzzChunkOpen throws arbitrary bytes at the HNTR2 parser: it must
// reject or replay them without panicking, and any file it does accept
// must replay within its own advertised length.
func FuzzChunkOpen(f *testing.F) {
	var seed bytes.Buffer
	_ = RecordChunked(&seed, NewURGenerator(0, 64), 300, 32)
	f.Add(seed.Bytes())
	f.Add([]byte(chunkMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewChunkReader(bytes.NewReader(raw), int64(len(raw)), false)
		if err != nil {
			return
		}
		limit := r.Len()
		if limit > 1<<16 {
			limit = 1 << 16
		}
		for i := int64(0); i < limit; i++ {
			r.Next()
			if r.Err() != nil {
				return
			}
		}
	})
}
