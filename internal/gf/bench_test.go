package gf

import (
	"fmt"
	"testing"
)

// Kernel benchmarks, paired with their byte-wise reference baselines so the
// speedup is measurable from one `go test -bench` run. The 4KB size is the
// default chunk size of the EPLog configurations. The benchmark/ module's
// gf.* rungs record the served stack's kernel costs.

const benchShard = 4096

func benchSlices(k int) (coeffs []byte, srcs [][]byte, dst []byte) {
	coeffs = make([]byte, k)
	srcs = make([][]byte, k)
	for j := range srcs {
		coeffs[j] = byte(2 + j)
		srcs[j] = make([]byte, benchShard)
		for i := range srcs[j] {
			srcs[j][i] = byte(i * (j + 3))
		}
	}
	return coeffs, srcs, make([]byte, benchShard)
}

func BenchmarkMulAddSlice(b *testing.B) {
	_, srcs, dst := benchSlices(1)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(benchShard)
		for i := 0; i < b.N; i++ {
			MulAddSlice(0x8E, srcs[0], dst)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(benchShard)
		for i := 0; i < b.N; i++ {
			RefMulAddSlice(0x8E, srcs[0], dst)
		}
	})
}

func BenchmarkMulSlice(b *testing.B) {
	_, srcs, dst := benchSlices(1)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(benchShard)
		for i := 0; i < b.N; i++ {
			MulSlice(0x8E, srcs[0], dst)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(benchShard)
		for i := 0; i < b.N; i++ {
			RefMulSlice(0x8E, srcs[0], dst)
		}
	})
}

func BenchmarkXORSlice(b *testing.B) {
	_, srcs, dst := benchSlices(1)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(benchShard)
		for i := 0; i < b.N; i++ {
			XORSlice(srcs[0], dst)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(benchShard)
		for i := 0; i < b.N; i++ {
			RefXORSlice(srcs[0], dst)
		}
	})
}

// BenchmarkMulAddSlices measures the fused k-source kernel against k
// separate single-source passes (the pre-fusion code shape) at the stripe
// widths EPLog uses. Bytes/op counts all k sources.
func BenchmarkMulAddSlices(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		coeffs, srcs, dst := benchSlices(k)
		b.Run(fmt.Sprintf("fused-k%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * benchShard))
			for i := 0; i < b.N; i++ {
				MulAddSlices(coeffs, srcs, dst)
			}
		})
		b.Run(fmt.Sprintf("persource-k%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * benchShard))
			for i := 0; i < b.N; i++ {
				for j := range srcs {
					MulAddSlice(coeffs[j], srcs[j], dst)
				}
			}
		})
		b.Run(fmt.Sprintf("ref-k%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * benchShard))
			for i := 0; i < b.N; i++ {
				RefMulAddSlices(coeffs, srcs, dst)
			}
		})
	}
}

func BenchmarkXORSlices(b *testing.B) {
	for _, k := range []int{4, 8} {
		_, srcs, dst := benchSlices(k)
		b.Run(fmt.Sprintf("fused-k%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * benchShard))
			for i := 0; i < b.N; i++ {
				XORSlices(srcs, dst)
			}
		})
		b.Run(fmt.Sprintf("ref-k%d", k), func(b *testing.B) {
			b.SetBytes(int64(k * benchShard))
			for i := 0; i < b.N; i++ {
				RefXORSlices(srcs, dst)
			}
		})
	}
}
