// Package flash models a NAND flash subsystem: geometry
// (channel/die/plane/block/page), the page-state machine
// (free → valid → invalid → erased), operation latencies, per-die
// serialization, and endurance (erase count) accounting.
//
// The model follows FlashSim's device layer: the FTL above it decides
// *what* to read, program, and erase; the device decides *when* those
// operations complete under contention and enforces NAND's physical
// rules (out-of-place writes, sequential in-block programming, erase
// before reuse).
package flash

import (
	"fmt"
	"math"
	"math/bits"
)

// PPN is a flat physical page number across the whole device.
type PPN uint64

// BlockID is a flat physical block number across the whole device.
type BlockID uint32

// DieID is a flat die number across the whole device. The die is the
// unit of operation serialization: one read, program, or erase at a
// time per die.
type DieID uint32

// InvalidPPN is a sentinel "no page" value.
const InvalidPPN = PPN(^uint64(0))

// Geometry describes the physical shape of the device.
type Geometry struct {
	Channels      int // independent buses
	DiesPerChan   int // dies (LUNs) per channel
	PlanesPerDie  int // planes per die
	BlocksPerPlan int // blocks per plane
	PagesPerBlock int // pages per block
	PageSize      int // bytes per page
}

// MaxPages is the largest page count a device may have. The dedup
// index stores PPNs and the FTL's reverse map stores LPNs in 32-bit
// fields, so every page number must fit one.
const MaxPages = math.MaxUint32

// Validate checks that every dimension is positive, that PagesPerBlock
// is a power of two (page addressing is a shift and a mask), and that
// the page count fits MaxPages. It allocates nothing, so an
// unrepresentable geometry is rejected before any per-page table is
// built.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("flash: geometry: Channels = %d, must be > 0", g.Channels)
	case g.DiesPerChan <= 0:
		return fmt.Errorf("flash: geometry: DiesPerChan = %d, must be > 0", g.DiesPerChan)
	case g.PlanesPerDie <= 0:
		return fmt.Errorf("flash: geometry: PlanesPerDie = %d, must be > 0", g.PlanesPerDie)
	case g.BlocksPerPlan <= 0:
		return fmt.Errorf("flash: geometry: BlocksPerPlan = %d, must be > 0", g.BlocksPerPlan)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: geometry: PagesPerBlock = %d, must be > 0", g.PagesPerBlock)
	case g.PageSize <= 0:
		return fmt.Errorf("flash: geometry: PageSize = %d, must be > 0", g.PageSize)
	case g.PagesPerBlock&(g.PagesPerBlock-1) != 0:
		return fmt.Errorf("flash: geometry: PagesPerBlock = %d, must be a power of two", g.PagesPerBlock)
	}
	// Multiply up with an overflow-proof bound check at every step.
	pages := uint64(1)
	for _, n := range [...]int{g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan, g.PagesPerBlock} {
		if uint64(n) > MaxPages/pages {
			return fmt.Errorf("flash: geometry: %dch x %ddie x %dpl x %dblk x %dpg exceeds %d pages",
				g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan, g.PagesPerBlock, uint64(MaxPages))
		}
		pages *= uint64(n)
	}
	return nil
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChan }

// TotalBlocks returns the total number of physical blocks.
func (g Geometry) TotalBlocks() int {
	return g.Dies() * g.PlanesPerDie * g.BlocksPerPlan
}

// TotalPages returns the total number of physical pages.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// PhysicalBytes returns the raw capacity in bytes.
func (g Geometry) PhysicalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// BlockBytes returns the size of one erase block in bytes.
func (g Geometry) BlockBytes() int { return g.PagesPerBlock * g.PageSize }

// PageOf returns the PPN of page pg within block b.
func (g Geometry) PageOf(b BlockID, pg int) PPN {
	return PPN(uint64(b)*uint64(g.PagesPerBlock) + uint64(pg))
}

// BlockOf returns the block containing p: a shift, because Validate
// guarantees PagesPerBlock is a power of two.
func (g Geometry) BlockOf(p PPN) BlockID {
	return BlockID(uint64(p) >> bits.TrailingZeros(uint(g.PagesPerBlock)))
}

// PageIndexOf returns the in-block page index of p.
func (g Geometry) PageIndexOf(p PPN) int { return int(uint64(p) & uint64(g.PagesPerBlock-1)) }

// pageRun returns the PPN range [lo, hi) of block b's pages.
func (g Geometry) pageRun(b BlockID) (lo, hi int) {
	lo = int(g.PageOf(b, 0))
	return lo, lo + g.PagesPerBlock
}

// DieOfBlock returns the die a block lives on. Blocks are laid out die
// by die: blocks [d*PlanesPerDie*BlocksPerPlan, (d+1)*...) belong to die d.
// Both operands fit 32 bits once Validate bounds the page count, and a
// 32-bit divide is cheaper than a 64-bit one.
func (g Geometry) DieOfBlock(b BlockID) DieID {
	return DieID(uint32(b) / uint32(g.PlanesPerDie*g.BlocksPerPlan))
}

// DieOf returns the die a page lives on.
func (g Geometry) DieOf(p PPN) DieID { return g.DieOfBlock(g.BlockOf(p)) }

// ChannelOfDie returns the channel a die is attached to.
func (g Geometry) ChannelOfDie(d DieID) int { return int(d) / g.DiesPerChan }

func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %ddie x %dpl x %dblk x %dpg x %dB (%.2f GiB raw)",
		g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan,
		g.PagesPerBlock, g.PageSize,
		float64(g.PhysicalBytes())/(1<<30))
}
