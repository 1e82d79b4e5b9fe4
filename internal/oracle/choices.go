package oracle

import "math/rand"

// Choices feeds a test generator its decisions as bytes, so a fuzzer's
// input and a seeded random stream drive the same generator. Past the end
// of a fuzzer's input every byte reads zero.
type Choices struct {
	data []byte
	rng  *rand.Rand
}

// FromBytes reads choices from data, a fuzzer's input.
func FromBytes(data []byte) *Choices { return &Choices{data: data} }

// FromSeed reads choices from a random stream seeded with seed.
func FromSeed(seed int64) *Choices { return &Choices{rng: rand.New(rand.NewSource(seed))} }

// Byte returns the next choice.
func (c *Choices) Byte() byte {
	if c.rng != nil {
		return byte(c.rng.Uint32())
	}
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

// Uint16 returns the next two choices as one value.
func (c *Choices) Uint16() uint16 { return uint16(c.Byte())<<8 | uint16(c.Byte()) }

// Intn returns a value in [0, n), for 0 < n <= 1<<16: one byte when n fits
// in one, two otherwise.
func (c *Choices) Intn(n int) int {
	if n <= 256 {
		return int(c.Byte()) % n
	}
	return int(c.Uint16()) % n
}

// Chance reports true one time in n.
func (c *Choices) Chance(n int) bool { return c.Intn(n) == 0 }
