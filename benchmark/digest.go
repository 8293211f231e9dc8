package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"commdb"
)

// result is one community as answer checking sees it: the core in
// keyword order and the exact cost.
type result struct {
	Core []commdb.NodeID
	Cost float64
}

// digest is the canonical fingerprint of one op's result sequence: for
// each community, in emission order, the core length, the core node IDs
// and the IEEE-754 bits of the cost. Sixteen hex digits keep
// golden.json small; a 64-bit collision is not a risk at a few hundred
// ops.
func digest(rs []result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range rs {
		put(uint64(len(r.Core)))
		for _, v := range r.Core {
			put(uint64(v))
		}
		put(math.Float64bits(r.Cost))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameResults reports whether got starts with exactly the communities
// of want. Reference executions stop early (a prefix of a COMM-all
// answer costs a fraction of the whole), so want may be shorter —
// unless the reference ran dry (exhausted), when got must end there too.
func sameResults(got, want []result, exhausted bool) bool {
	if len(got) < len(want) || (exhausted && len(got) != len(want)) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g.Cost) != math.Float64bits(w.Cost) || len(g.Core) != len(w.Core) {
			return false
		}
		for j := range w.Core {
			if g.Core[j] != w.Core[j] {
				return false
			}
		}
	}
	return true
}
