package hypergraph

// Interner assigns small dense integer ids to vertex sets. The
// decomposition searches memoize (component, connector) subproblems; with
// an Interner the memo key is a packed pair of ints instead of a
// heap-allocated string, and the repeated-lookup path (the overwhelmingly
// common case) allocates nothing: one fingerprint pass over the words plus
// an exact Equal confirmation against the bucket entries.
//
// The zero value is ready to use.
type Interner struct {
	// buckets maps a fingerprint to the head of its collision chain in
	// entries (index+1; 0 = empty). Keeping the entries in one flat
	// slice costs one amortized append per new set instead of a fresh
	// per-bucket slice.
	buckets map[uint64]int32
	entries []internEntry

	// Canonical copies are carved from chunked slabs (doubling between
	// the bounds below): the searches intern thousands of small sets,
	// and one slab allocation serves many of them. Chunks are re-sliced,
	// never reallocated, so handed-out canonical sets stay valid.
	words  []uint64
	wordSz int
}

const internWordChunkMin, internWordChunkMax = 64, 8192

type internEntry struct {
	set  VertexSet
	next int32 // index+1 of the next entry in this chain; 0 terminates
}

// Intern returns the id of s, the canonical stored copy, and whether s was
// newly added. The canonical copy is stable for the lifetime of the
// Interner and must not be modified; callers may retain it instead of
// cloning s (the decomposition searches rely on this to pass scratch
// buffers in and keep canonical sets).
func (in *Interner) Intern(s VertexSet) (int, VertexSet, bool) {
	fp := s.Fingerprint()
	if in.buckets == nil {
		in.buckets = map[uint64]int32{}
	}
	head := in.buckets[fp]
	for i := head; i != 0; i = in.entries[i-1].next {
		if e := &in.entries[i-1]; e.set.Equal(s) {
			return int(i - 1), e.set, false
		}
	}
	c := in.carve(s)
	id := len(in.entries)
	in.entries = append(in.entries, internEntry{set: c, next: head})
	in.buckets[fp] = int32(id + 1)
	return id, c, true
}

// carve copies s into the slab. Equivalent to Clone for every VertexSet
// operation; only the allocation granularity differs.
func (in *Interner) carve(s VertexSet) VertexSet {
	n := len(s)
	if n == 0 {
		return nil
	}
	if len(in.words) < n {
		sz := in.wordSz
		if sz < internWordChunkMin {
			sz = internWordChunkMin
		}
		in.wordSz = sz * 2
		if in.wordSz > internWordChunkMax {
			in.wordSz = internWordChunkMax
		}
		if n > sz {
			sz = n
		}
		in.words = make([]uint64, sz)
	}
	c := VertexSet(in.words[:n:n])
	in.words = in.words[n:]
	copy(c, s)
	return c
}

// Size returns the number of distinct sets interned so far.
func (in *Interner) Size() int { return len(in.entries) }
