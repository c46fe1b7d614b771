package netmodel

import "sync"

// sigBufPool recycles the scratch buffers behind the signature encoders
// (Route.AppendSignature, appendAttrDiffSig).
// Their call sites — RIB digesting, global-RIB diffing — sit on the serve hot path where every query re-encodes
// thousands of rows; without the pool each call chain allocates (and often
// regrows) its own buffer. Buffers are pointers-to-slice to keep the pool
// allocation-free, and hand back whatever capacity they grew to.
var sigBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetSigBuf returns an empty signature scratch buffer from the pool. Use it
// as `buf := GetSigBuf(); defer PutSigBuf(buf)` and encode via
// `*buf = row.AppendSignature((*buf)[:0])`; the contents must not be
// retained past PutSigBuf (copy with string(...) or append first).
func GetSigBuf() *[]byte {
	return sigBufPool.Get().(*[]byte)
}

// PutSigBuf returns a buffer obtained from GetSigBuf to the pool.
func PutSigBuf(b *[]byte) {
	*b = (*b)[:0]
	sigBufPool.Put(b)
}
