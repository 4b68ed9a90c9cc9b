// Package poolcheck_a exercises the poolcheck analyzer: leaks on early
// returns, use-after-Put, scope exits, and the sanctioned annotation.
package poolcheck_a

import (
	"errors"

	"bufpool"
)

// LeakOnErrorPath drops the buffer when it bails early.
func LeakOnErrorPath(n int) error {
	buf := bufpool.Default.Get(n)
	if n > 4096 {
		return errors.New("too big") // want `buf leaks a pool buffer on this path`
	}
	buf[0] = 1
	bufpool.Default.Put(buf)
	return nil
}

// UseAfterPut touches the buffer after releasing it.
func UseAfterPut(n int) byte {
	buf := bufpool.Default.Get(n)
	bufpool.Default.Put(buf)
	return buf[0] // want `use of buf after it was returned to the pool`
}

// NeverReleased holds the buffer all the way to the end.
func NeverReleased(n int) {
	buf := bufpool.Default.GetZero(n)
	buf[0] = 1
} // want `buf leaks a pool buffer on this path`

// ScopeLeak lets the variable die inside a branch while still held.
func ScopeLeak(n int) {
	if n > 2 {
		buf := bufpool.Default.Get(n)
		buf[0] = 1
	} // want `buf goes out of scope still holding a pool buffer`
}

// SlicesLeak loses a whole slice table.
func SlicesLeak(n int) {
	tab := bufpool.Default.GetSlices(make([][]byte, 4), n)
	tab[0][0] = 1
} // want `tab leaks a pool buffer on this path`

// DeferredOK releases on every path through one defer.
func DeferredOK(n int) error {
	buf := bufpool.Default.Get(n)
	defer bufpool.Default.Put(buf)
	if n > 4096 {
		return errors.New("too big")
	}
	buf[0] = 1
	return nil
}

// BranchesOK releases on both paths; the conditional release followed by
// a merge must not be a false positive.
func BranchesOK(n int) {
	buf := bufpool.Default.Get(n)
	if n > 8 {
		bufpool.Default.Put(buf)
		return
	}
	buf[0] = 1
	bufpool.Default.Put(buf)
}

// EarlyReturnBeforeGetOK leaves before the buffer exists: only the exit
// after the acquisition can leak it.
func EarlyReturnBeforeGetOK(n int) error {
	if n > 4096 {
		return errors.New("too big")
	}
	buf := bufpool.Default.Get(n)
	if n > 8 {
		return errors.New("odd") // want `buf leaks a pool buffer on this path`
	}
	buf[0] = 1
	bufpool.Default.Put(buf)
	return nil
}

// TransferOK hands ownership to the caller: no leak report.
func TransferOK(n int) []byte {
	buf := bufpool.Default.Get(n)
	return buf
}

// StoreOK transfers ownership into a struct: no leak report.
type holder struct{ b []byte }

func StoreOK(h *holder, n int) {
	buf := bufpool.Default.Get(n)
	h.b = buf
}

// Sanctioned keeps the buffer deliberately.
func Sanctioned(n int) {
	buf := bufpool.Default.Get(n) //eplog:pool-ok fixture retains the buffer on purpose
	buf[0] = 1
}

// LoopRelease is the per-iteration acquire/release idiom: clean.
func LoopRelease(rounds, n int) {
	for i := 0; i < rounds; i++ {
		buf := bufpool.Default.Get(n)
		buf[0] = byte(i)
		bufpool.Default.Put(buf)
	}
}

// CrossIterationUse releases in one iteration and uses in the next.
func CrossIterationUse(rounds, n int) {
	buf := bufpool.Default.Get(n)
	for i := 0; i < rounds; i++ {
		buf[0] = byte(i)         // want `use of buf after it was returned to the pool`
		bufpool.Default.Put(buf) // want `use of buf after it was returned to the pool`
	}
}

// BatchedReleaseOK is the vectored-writer idiom: collect pooled payloads
// into a batch, ship the whole batch in one vectored write, and only
// then release every payload — the iovec aliases the buffers until the
// write lands. Appending transfers ownership into the batch slice, so
// holding across the write must not be a false positive.
func BatchedReleaseOK(frames, n int) {
	batch := make([][]byte, 0, frames)
	for i := 0; i < frames; i++ {
		buf := bufpool.Default.Get(n)
		buf[0] = byte(i)
		batch = append(batch, buf)
	}
	// ...vectored write of the whole batch lands here...
	for _, buf := range batch {
		bufpool.Default.Put(buf)
	}
}

// DeferredBatchReleaseOK releases the collected batch through one defer,
// as the soak client's per-connection free stack does on teardown.
func DeferredBatchReleaseOK(frames, n int) {
	batch := make([][]byte, 0, frames)
	defer func() {
		for _, buf := range batch {
			bufpool.Default.Put(buf)
		}
	}()
	for i := 0; i < frames; i++ {
		batch = append(batch, bufpool.Default.Get(n))
	}
}

// BatchUseAfterPut touches the Get'd variable after it was both handed
// to the batch and directly released: still a use-after-Put.
func BatchUseAfterPut(n int) byte {
	batch := make([][]byte, 0, 1)
	buf := bufpool.Default.Get(n)
	batch = append(batch, buf)
	bufpool.Default.Put(buf)
	_ = batch
	return buf[0] // want `use of buf after it was returned to the pool`
}
