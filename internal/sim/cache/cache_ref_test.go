package cache

// A frozen copy of the cache model as it stood before it kept its ways in
// flat arrays, precomputed its set shift and mask, and memoized the most
// recent line. It is the oracle TestCacheMatchesReference replays streams
// against: the optimized Cache must report every hit and miss, and end in
// exactly the Save bytes, this copy does. Do not optimize or fix this
// file; it exists to stay still.

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// refCache is a set-associative cache with true-LRU replacement.
type refCache struct {
	cfg      Config
	sets     int
	lineBits uint
	// tags[set][way]; lru[set][way] holds recency (higher = more recent).
	tags  [][]uint64
	valid [][]bool
	lru   [][]uint64
	clock uint64

	Hits   uint64
	Misses uint64
}

// newRefCache validates the configuration and builds the cache.
func newRefCache(cfg Config) (*refCache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d bytes / %d-byte lines not divisible into %d ways",
			cfg.SizeBytes, cfg.LineBytes, cfg.Ways)
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	c := &refCache{cfg: cfg, sets: sets}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	return c, nil
}

// Access looks up addr, updating LRU state and filling on miss.
// It reports whether the access hit.
func (c *refCache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & uint64(c.sets-1))
	tag := line >> uint(refLog2(c.sets))
	c.clock++
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.lru[set][w] = c.clock
			c.Hits++
			return true
		}
	}
	// Miss: fill LRU way.
	victim := 0
	for w := 1; w < c.cfg.Ways; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.clock
	c.Misses++
	return false
}

// Reset invalidates all lines and clears statistics.
func (c *refCache) Reset() {
	for i := range c.valid {
		for w := range c.valid[i] {
			c.valid[i][w] = false
			c.lru[i][w] = 0
		}
	}
	c.clock, c.Hits, c.Misses = 0, 0, 0
}

func refLog2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Save serializes the cache's complete replacement state for a
// deterministic simulation checkpoint.
func (c *refCache) Save() ([]byte, error) {
	st := state{
		Tags:   make([][]uint64, len(c.tags)),
		Valid:  make([][]bool, len(c.valid)),
		LRU:    make([][]uint64, len(c.lru)),
		Clock:  c.clock,
		Hits:   c.Hits,
		Misses: c.Misses,
	}
	for i := range c.tags {
		st.Tags[i] = append([]uint64(nil), c.tags[i]...)
		st.Valid[i] = append([]bool(nil), c.valid[i]...)
		st.LRU[i] = append([]uint64(nil), c.lru[i]...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
