package gmac

import "testing"

// TestIOBufPoolOversized pins the fallback: a request larger than the pooled
// chunk size gets a one-shot buffer and must not poison the pool.
func TestIOBufPoolOversized(t *testing.T) {
	buf, tok := getIOBuf(1 << 20)
	if int64(len(buf)) != 1<<20 {
		t.Fatalf("oversized buffer len %d", len(buf))
	}
	if tok != nil {
		t.Fatal("oversized buffer carries a pool token")
	}
	putIOBuf(tok)
	bp := ioBufPool.Get().(*[]byte)
	defer ioBufPool.Put(bp)
	if len(*bp) != 256<<10 {
		t.Fatalf("pool holds %d-byte buffer, want chunk-sized", len(*bp))
	}
}
