package gf

import "encoding/binary"

// Slice kernels, in two tiers. The portable word tier processes 8 bytes
// per iteration — one uint64 load per source word, one load-xor-store per
// destination word, split-nibble table lookups (mulLo/mulHi, 32 bytes per
// coefficient) for the GF multiplies — and its multi-source kernels fuse up
// to maxFused sources into one pass over dst. On amd64 the same nibble
// tables feed PSHUFB kernels (16 bytes per iteration with SSSE3, 32 with
// AVX2; kernels_amd64.go), and the multi-source entry points run one vector
// pass per source over an L1-resident dst instead. All kernels are
// bit-identical to the byte-wise reference loops in reference.go —
// differential tests pin this — and are allocation-free.

// MulSlice sets dst[i] = c * src[i]. dst and src must have equal length.
//
//eplog:hotpath
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulSlice length mismatch")
	}
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mulSliceFast(c, src, dst)
}

// MulAddSlice sets dst[i] ^= c * src[i]; it is the inner loop of systematic
// Reed-Solomon encoding. dst and src must have equal length.
//
//eplog:hotpath
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XORSlice(src, dst)
		return
	}
	mulAddSliceFast(c, src, dst)
}

// XORSlice sets dst[i] ^= src[i]: with 16- or 32-byte vector loads on
// amd64, 8-byte words elsewhere. dst and src must have equal length.
//
//eplog:hotpath
func XORSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf: XORSlice length mismatch")
	}
	xorSliceFast(src, dst)
}

// maxFused bounds how many sources one fused pass handles; the per-source
// table pointers must fit in stack arrays so the kernels stay
// allocation-free. Wider inputs are processed in batches.
const maxFused = 16

// MulAddSlices sets dst[i] ^= sum_j coeffs[j] * srcs[j][i]: the k-source
// inner loop of Reed-Solomon encode and decode. The word tier walks dst
// once for all sources; the amd64 vector tier walks it once per source.
// coeffs and srcs must have equal length and every source must match dst's
// length. Zero coefficients are skipped.
//
//eplog:hotpath
func MulAddSlices(coeffs []byte, srcs [][]byte, dst []byte) {
	if len(coeffs) != len(srcs) {
		panic("gf: MulAddSlices coefficient count mismatch")
	}
	for j, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: MulAddSlices length mismatch")
		}
		_ = coeffs[j]
	}
	mulAddSlicesFast(coeffs, srcs, dst)
}

// XORSlices sets dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ ...: the fused inner
// loop of XOR (m=1) parity. Every source must match dst's length.
//
//eplog:hotpath
func XORSlices(srcs [][]byte, dst []byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: XORSlices length mismatch")
		}
	}
	xorSlicesFast(srcs, dst)
}

// --- portable word-parallel implementations ---

// mulWordNibble multiplies each byte lane of the 8-byte word s by the
// coefficient whose split-nibble rows are lo and hi.
//
//eplog:hotpath
func mulWordNibble(lo, hi *[16]byte, s uint64) uint64 {
	return uint64(lo[s&15]^hi[s>>4&15]) |
		uint64(lo[s>>8&15]^hi[s>>12&15])<<8 |
		uint64(lo[s>>16&15]^hi[s>>20&15])<<16 |
		uint64(lo[s>>24&15]^hi[s>>28&15])<<24 |
		uint64(lo[s>>32&15]^hi[s>>36&15])<<32 |
		uint64(lo[s>>40&15]^hi[s>>44&15])<<40 |
		uint64(lo[s>>48&15]^hi[s>>52&15])<<48 |
		uint64(lo[s>>56&15]^hi[s>>60])<<56
}

//eplog:hotpath
func mulSliceWord(c byte, src, dst []byte) {
	lo, hi := &mulLo[c], &mulHi[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], mulWordNibble(lo, hi, s))
	}
	mt := &mulTable[c]
	for i := n; i < len(src); i++ {
		dst[i] = mt[src[i]]
	}
}

//eplog:hotpath
func mulAddSliceWord(c byte, src, dst []byte) {
	lo, hi := &mulLo[c], &mulHi[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		d := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^mulWordNibble(lo, hi, s))
	}
	mt := &mulTable[c]
	for i := n; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

//eplog:hotpath
func xorSliceWord(src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		d := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// mulAddSlicesWord is the fused portable kernel: one pass over dst for up
// to maxFused sources per batch.
//
//eplog:hotpath
func mulAddSlicesWord(coeffs []byte, srcs [][]byte, dst []byte) {
	for len(srcs) > maxFused {
		mulAddSlicesWordN(coeffs[:maxFused], srcs[:maxFused], dst)
		coeffs, srcs = coeffs[maxFused:], srcs[maxFused:]
	}
	mulAddSlicesWordN(coeffs, srcs, dst)
}

//eplog:hotpath
func mulAddSlicesWordN(coeffs []byte, srcs [][]byte, dst []byte) {
	var (
		lo, hi [maxFused]*[16]byte
		rows   [maxFused]*[Order]byte
		ss     [maxFused][]byte
	)
	cnt := 0
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		lo[cnt], hi[cnt] = &mulLo[c], &mulHi[c]
		rows[cnt] = &mulTable[c]
		ss[cnt] = srcs[j]
		cnt++
	}
	if cnt == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for j := 0; j < cnt; j++ {
			s := binary.LittleEndian.Uint64(ss[j][i:])
			acc ^= mulWordNibble(lo[j], hi[j], s)
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i < len(dst); i++ {
		v := dst[i]
		for j := 0; j < cnt; j++ {
			v ^= rows[j][ss[j][i]]
		}
		dst[i] = v
	}
}

// xorSlicesWord is the fused portable XOR kernel.
//
//eplog:hotpath
func xorSlicesWord(srcs [][]byte, dst []byte) {
	for len(srcs) > maxFused {
		xorSlicesWordN(srcs[:maxFused], dst)
		srcs = srcs[maxFused:]
	}
	xorSlicesWordN(srcs, dst)
}

//eplog:hotpath
func xorSlicesWordN(srcs [][]byte, dst []byte) {
	if len(srcs) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range srcs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i < len(dst); i++ {
		v := dst[i]
		for _, s := range srcs {
			v ^= s[i]
		}
		dst[i] = v
	}
}
