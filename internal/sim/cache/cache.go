// Package cache implements the set-associative cache timing models used by
// the cycle-exact simulator for the L1 instruction and data caches. Only
// timing is modelled (hit/miss); data always comes from the functional
// memory, which keeps the functional/cycle-exact equivalence trivially true.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size (power of two).
	LineBytes int
	// Ways is the associativity.
	Ways int
}

// DefaultL1I returns a typical 16KiB 4-way L1 instruction cache.
func DefaultL1I() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4} }

// DefaultL1D returns a typical 16KiB 4-way L1 data cache.
func DefaultL1D() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4} }

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg  Config
	sets int
	ways int
	// An address splits into tag | set | offset: line = addr>>lineBits,
	// set = line&setMask, tag = line>>setBits.
	lineBits uint
	setBits  uint
	setMask  uint64
	// Way state of set s lives at [s*ways, (s+1)*ways); lru holds
	// recency (higher = more recent).
	tags  []uint64
	valid []bool
	lru   []uint64
	clock uint64
	// memoLine/memoSlot remember the line of the last access and the way
	// slot holding it (memoOK once set), so back-to-back accesses to one
	// line — most instruction fetches — skip the set search. The memo is
	// only a shortcut: it updates clock, LRU and Hits exactly as the
	// search would.
	memoLine uint64
	memoSlot int
	memoOK   bool

	Hits   uint64
	Misses uint64
}

// New validates the configuration and builds the cache.
func New(cfg Config) (*Cache, error) {
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
	c := &Cache{cfg: cfg, sets: sets, ways: cfg.Ways, setMask: uint64(sets - 1)}
	c.lineBits = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.setBits = uint(bits.TrailingZeros(uint(sets)))
	c.tags = make([]uint64, sets*cfg.Ways)
	c.valid = make([]bool, sets*cfg.Ways)
	c.lru = make([]uint64, sets*cfg.Ways)
	return c, nil
}

// Access looks up addr, updating LRU state and filling on miss.
// It reports whether the access hit. The memo hit is kept small enough
// to inline into the timing model's loop; everything else is lookup.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	c.clock++
	if line == c.memoLine && c.memoOK {
		c.lru[c.memoSlot] = c.clock
		c.Hits++
		return true
	}
	return c.lookup(line)
}

// lookup searches line's set, filling the LRU way on a miss, and
// memoizes the way that now holds the line. c.clock is already bumped.
func (c *Cache) lookup(line uint64) bool {
	base := int(line&c.setMask) * c.ways
	tag := line >> c.setBits
	tags := c.tags[base : base+c.ways]
	valid := c.valid[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	for w, t := range tags {
		if t == tag && valid[w] {
			lru[w] = c.clock
			c.Hits++
			c.memoLine, c.memoSlot, c.memoOK = line, base+w, true
			return true
		}
	}
	// Miss: fill LRU way.
	victim := 0
	for w := 1; w < len(lru); w++ {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = tag
	valid[victim] = true
	lru[victim] = c.clock
	c.Misses++
	c.memoLine, c.memoSlot, c.memoOK = line, base+victim, true
	return false
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.lru)
	c.clock, c.Hits, c.Misses = 0, 0, 0
	c.memoOK = false
}

// HitRate returns hits/(hits+misses), or 1 when no accesses occurred.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 1
	}
	return float64(c.Hits) / float64(total)
}

// Sets returns the number of sets (for tests and introspection).
func (c *Cache) Sets() int { return c.sets }
