package cache

// Checkpoint serialization. Resumed cycle-exact runs need the cache
// model's exact tag/valid/LRU state (and the LRU clock) to charge the
// same hits and misses an uninterrupted run would; Hits/Misses travel
// too so end-of-run statistics match.

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

type state struct {
	Tags   [][]uint64
	Valid  [][]bool
	LRU    [][]uint64
	Clock  uint64
	Hits   uint64
	Misses uint64
}

// Save serializes the cache's complete replacement state for a
// deterministic simulation checkpoint.
func (c *Cache) Save() ([]byte, error) {
	st := state{
		Tags:   make([][]uint64, c.sets),
		Valid:  make([][]bool, c.sets),
		LRU:    make([][]uint64, c.sets),
		Clock:  c.clock,
		Hits:   c.Hits,
		Misses: c.Misses,
	}
	for i := range st.Tags {
		lo, hi := i*c.ways, (i+1)*c.ways
		st.Tags[i] = append([]uint64(nil), c.tags[lo:hi]...)
		st.Valid[i] = append([]bool(nil), c.valid[lo:hi]...)
		st.LRU[i] = append([]uint64(nil), c.lru[lo:hi]...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore replaces the cache's state with a prior Save. The cache must
// be configured identically to the one that saved.
func (c *Cache) Restore(data []byte) error {
	var st state
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("cache: restore: %w", err)
	}
	if len(st.Tags) != c.sets || len(st.Valid) != c.sets || len(st.LRU) != c.sets {
		return fmt.Errorf("cache: restore: %d sets, want %d", len(st.Tags), c.sets)
	}
	for i := range st.Tags {
		if len(st.Tags[i]) != c.ways || len(st.Valid[i]) != c.ways || len(st.LRU[i]) != c.ways {
			return fmt.Errorf("cache: restore: set %d has %d ways, want %d", i, len(st.Tags[i]), c.ways)
		}
	}
	// Install only after the whole state checked out, so a rejected
	// snapshot leaves the cache as it was.
	for i := range st.Tags {
		copy(c.tags[i*c.ways:], st.Tags[i])
		copy(c.valid[i*c.ways:], st.Valid[i])
		copy(c.lru[i*c.ways:], st.LRU[i])
	}
	c.memoOK = false
	c.clock = st.Clock
	c.Hits = st.Hits
	c.Misses = st.Misses
	return nil
}
