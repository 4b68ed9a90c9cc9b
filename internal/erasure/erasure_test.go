package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func fillRandom(r *rand.Rand, shards [][]byte) {
	for _, s := range shards {
		r.Read(s)
	}
}

func makeShards(n, size int) [][]byte {
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = make([]byte, size)
	}
	return shards
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		k, m    int
		wantErr bool
	}{
		{name: "raid5", k: 4, m: 1},
		{name: "raid6", k: 6, m: 2},
		{name: "k1m0", k: 1, m: 0},
		{name: "max", k: 200, m: 56},
		{name: "zero k", k: 0, m: 2, wantErr: true},
		{name: "negative m", k: 2, m: -1, wantErr: true},
		{name: "too many shards", k: 250, m: 7, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.k, tt.m, Cauchy)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d, %d) error = %v, wantErr %v", tt.k, tt.m, err, tt.wantErr)
			}
		})
	}
}

func TestUnknownConstruction(t *testing.T) {
	if _, err := New(4, 2, Construction(99)); err == nil {
		t.Fatal("New with unknown construction succeeded")
	}
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range []Construction{Cauchy, Vandermonde} {
		for _, km := range [][2]int{{1, 1}, {2, 1}, {4, 1}, {4, 2}, {6, 2}, {3, 3}, {10, 4}} {
			code, err := New(km[0], km[1], c)
			if err != nil {
				t.Fatal(err)
			}
			shards := makeShards(code.N(), 128)
			fillRandom(r, shards[:code.K()])
			if err := code.Encode(shards); err != nil {
				t.Fatal(err)
			}
			ok, err := code.Verify(shards)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("construction %d k=%d m=%d: Verify rejected freshly encoded stripe", c, km[0], km[1])
			}
			// Corrupt one byte and Verify must fail.
			shards[0][5] ^= 0xFF
			ok, err = code.Verify(shards)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("construction %d k=%d m=%d: Verify accepted corrupted stripe", c, km[0], km[1])
			}
		}
	}
}

// TestReconstructAllErasurePatterns exhaustively checks every erasure
// pattern of size <= m for moderate codes: the MDS property.
func TestReconstructAllErasurePatterns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, c := range []Construction{Cauchy, Vandermonde} {
		for _, km := range [][2]int{{4, 1}, {6, 2}, {4, 2}, {6, 3}, {5, 4}} {
			k, m := km[0], km[1]
			code, err := New(k, m, c)
			if err != nil {
				t.Fatal(err)
			}
			orig := makeShards(code.N(), 64)
			fillRandom(r, orig[:k])
			if err := code.Encode(orig); err != nil {
				t.Fatal(err)
			}
			n := code.N()
			// Enumerate subsets of {0..n-1} with size in [1, m].
			for mask := 1; mask < 1<<n; mask++ {
				if popcount(mask) > m {
					continue
				}
				shards := make([][]byte, n)
				for i := 0; i < n; i++ {
					if mask&(1<<i) == 0 {
						shards[i] = bytes.Clone(orig[i])
					}
				}
				if err := code.Reconstruct(shards); err != nil {
					t.Fatalf("c=%d k=%d m=%d mask=%b: %v", c, k, m, mask, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(shards[i], orig[i]) {
						t.Fatalf("c=%d k=%d m=%d mask=%b: shard %d mismatch", c, k, m, mask, i)
					}
				}
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestReconstructDataOnly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	code, err := New(6, 2, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(code.N(), 32)
	fillRandom(r, orig[:6])
	if err := code.Encode(orig); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, code.N())
	for i := range orig {
		shards[i] = bytes.Clone(orig[i])
	}
	shards[1] = nil // missing data shard
	shards[7] = nil // missing parity shard
	if err := code.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], orig[1]) {
		t.Fatal("data shard not reconstructed")
	}
	if shards[7] != nil {
		t.Fatal("ReconstructData repaired a parity shard")
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	code, err := New(4, 2, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	shards := makeShards(code.N(), 16)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := code.Reconstruct(shards); err == nil {
		t.Fatal("Reconstruct with k-1 shards succeeded")
	}
}

func TestReconstructNoMissing(t *testing.T) {
	code, err := New(3, 2, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	shards := makeShards(code.N(), 16)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if err := code.Reconstruct(shards); err != nil {
		t.Fatalf("Reconstruct with no missing shards: %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	code, err := New(2, 1, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	if err := code.Encode(makeShards(2, 8)); err == nil {
		t.Error("Encode with wrong shard count succeeded")
	}
	shards := makeShards(3, 8)
	shards[1] = make([]byte, 9)
	if err := code.Encode(shards); err == nil {
		t.Error("Encode with mismatched sizes succeeded")
	}
	shards = makeShards(3, 8)
	shards[2] = nil
	if err := code.Encode(shards); err == nil {
		t.Error("Encode with nil shard succeeded")
	}
	shards = makeShards(3, 0)
	if err := code.Encode(shards); err == nil {
		t.Error("Encode with empty shards succeeded")
	}
}

func TestXORFastPathMatchesGeneral(t *testing.T) {
	// For m=1 the Vandermonde-derived single parity row must be all ones
	// (RAID-5), so the XOR fast path and the general path agree.
	r := rand.New(rand.NewSource(4))
	for _, c := range []Construction{Cauchy, Vandermonde} {
		code, err := New(5, 1, c)
		if err != nil {
			t.Fatal(err)
		}
		shards := makeShards(6, 64)
		fillRandom(r, shards[:5])
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 64)
		for i := 0; i < 5; i++ {
			for b := range want {
				want[b] ^= shards[i][b]
			}
		}
		if !code.xorOnly {
			t.Errorf("construction %d: m=1 did not enable XOR fast path", c)
		}
		if !bytes.Equal(shards[5], want) {
			t.Errorf("construction %d: XOR parity mismatch", c)
		}
	}
}

func TestUpdateParityMatchesReencode(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, km := range [][2]int{{4, 1}, {6, 2}, {4, 3}} {
		code, err := New(km[0], km[1], Cauchy)
		if err != nil {
			t.Fatal(err)
		}
		shards := makeShards(code.N(), 48)
		fillRandom(r, shards[:code.K()])
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		// Update data shard 2 and patch parity incrementally.
		oldData := bytes.Clone(shards[2])
		r.Read(shards[2])
		delta := make([]byte, 48)
		for i := range delta {
			delta[i] = oldData[i] ^ shards[2][i]
		}
		if err := code.UpdateParity(2, delta, shards[code.K():]); err != nil {
			t.Fatal(err)
		}
		ok, err := code.Verify(shards)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("k=%d m=%d: incremental parity update diverged from re-encode", km[0], km[1])
		}
	}
}

func TestUpdateParityErrors(t *testing.T) {
	code, err := New(4, 2, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	parity := makeShards(2, 8)
	if err := code.UpdateParity(-1, make([]byte, 8), parity); err == nil {
		t.Error("negative index accepted")
	}
	if err := code.UpdateParity(4, make([]byte, 8), parity); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := code.UpdateParity(0, make([]byte, 8), parity[:1]); err == nil {
		t.Error("short parity slice accepted")
	}
	if err := code.UpdateParity(0, make([]byte, 9), parity); err == nil {
		t.Error("delta size mismatch accepted")
	}
}

// TestReconstructQuick is a property test: random (k, m), random data,
// random erasure pattern of size <= m must always reconstruct exactly.
func TestReconstructQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	prop := func(kRaw, mRaw uint8, seed int64) bool {
		k := int(kRaw)%10 + 1
		m := int(mRaw)%4 + 1
		r := rand.New(rand.NewSource(seed))
		code, err := New(k, m, Cauchy)
		if err != nil {
			return false
		}
		orig := makeShards(code.N(), 32)
		fillRandom(r, orig[:k])
		if err := code.Encode(orig); err != nil {
			return false
		}
		// Erase a random subset of size m.
		perm := r.Perm(code.N())
		shards := make([][]byte, code.N())
		for i := range orig {
			shards[i] = bytes.Clone(orig[i])
		}
		for _, idx := range perm[:m] {
			shards[idx] = nil
		}
		if err := code.Reconstruct(shards); err != nil {
			return false
		}
		for i := range orig {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCache(t *testing.T) {
	cc := NewCache(Cauchy)
	a, err := cc.Get(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Get(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Cache returned distinct codes for identical parameters")
	}
	c, err := cc.Get(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("Cache conflated different parameters")
	}
	if _, err := cc.Get(0, 2); err == nil {
		t.Error("Cache accepted invalid parameters")
	}
}

func TestCacheConcurrent(t *testing.T) {
	cc := NewCache(Cauchy)
	done := make(chan *Code)
	for i := 0; i < 8; i++ {
		go func() {
			code, err := cc.Get(6, 2)
			if err != nil {
				done <- nil
				return
			}
			done <- code
		}()
	}
	var first *Code
	for i := 0; i < 8; i++ {
		code := <-done
		if code == nil {
			t.Fatal("concurrent Get failed")
		}
		if first == nil {
			first = code
		} else if code != first {
			t.Fatal("concurrent Gets returned distinct codes")
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := newMatrix(2, 2)
	m[0][0], m[0][1] = 1, 2
	m[1][0], m[1][1] = 1, 2
	if _, err := m.invert(); err == nil {
		t.Fatal("inverting a singular matrix succeeded")
	}
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := identityMatrix(4)
	inv, err := id.invert()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if inv[i][j] != want {
				t.Fatalf("identity inverse entry (%d,%d) = %d", i, j, inv[i][j])
			}
		}
	}
}

func BenchmarkEncode6x2_4K(b *testing.B) {
	code, err := New(6, 2, Cauchy)
	if err != nil {
		b.Fatal(err)
	}
	shards := makeShards(8, 4096)
	fillRandom(rand.New(rand.NewSource(7)), shards[:6])
	b.SetBytes(6 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct6x2_4K(b *testing.B) {
	code, err := New(6, 2, Cauchy)
	if err != nil {
		b.Fatal(err)
	}
	orig := makeShards(8, 4096)
	fillRandom(rand.New(rand.NewSource(8)), orig[:6])
	if err := code.Encode(orig); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, 8)
		copy(shards, orig)
		shards[0], shards[3] = nil, nil
		if err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
