/**
 * @file
 * FPGA device models.
 *
 * TAPA-CS presents each FPGA to its floorplanner as "a grid divided
 * into slots by the hard IPs and static regions" (paper section 4.5):
 * the Alveo U55C appears as 2 columns x 3 rows of slots, one slot per
 * die half, with every HBM channel pinned to the bottom row. This
 * module captures that abstraction plus the memory-system constants
 * the simulator needs (HBM/DDR bandwidth, on-chip SRAM bandwidth,
 * paper Tables 2 and 9).
 */

#ifndef TAPACS_DEVICE_DEVICE_HH
#define TAPACS_DEVICE_DEVICE_HH

#include <string>
#include <vector>

#include "common/status.hh"
#include "common/units.hh"
#include "device/resources.hh"

namespace tapacs
{

/** Position of a slot in the device grid. */
struct SlotCoord
{
    int col = 0;
    int row = 0;

    bool operator==(const SlotCoord &o) const
    {
        return col == o.col && row == o.row;
    }

    /** Manhattan distance used by the intra-FPGA cost (paper eq. 4). */
    int manhattan(const SlotCoord &o) const;
};

/** One floorplanning slot: a die-half bounded by static regions. */
struct Slot
{
    SlotCoord coord;
    /** Index of the SLR (die) this slot belongs to. */
    int die = 0;
    /** Programmable resources available inside this slot. */
    ResourceVector capacity;
    /** True if HBM/DDR memory channels surface in this slot. */
    bool exposesMemory = false;
};

/** External-memory subsystem description. */
struct MemorySystem
{
    /** Number of user-visible memory (pseudo-)channels. */
    int channels = 0;
    /** Aggregate bandwidth across all channels. */
    BytesPerSecond aggregateBandwidth = 0.0;
    /** Total capacity in bytes. */
    Bytes capacity = 0;
    /** Native port width (bits) at which a channel saturates. */
    int saturatingPortWidthBits = 512;

    BytesPerSecond perChannelBandwidth() const
    {
        return channels > 0 ? aggregateBandwidth / channels : 0.0;
    }
};

/**
 * A single FPGA card as seen by the compiler: slot grid, dies,
 * memory system and achievable clocking.
 */
class DeviceModel
{
  public:
    /**
     * Build a device from a uniform slot grid.
     *
     * @param name display name, e.g. "U55C".
     * @param cols number of slot columns.
     * @param rows number of slot rows (== dies when 1 row per die).
     * @param rowsPerDie grid rows per silicon die.
     * @param total total programmable resources, split evenly
     *        across slots.
     * @param memory external-memory description.
     * @param memoryRow grid row in which memory channels surface
     *        (-1 = no memory-attached row).
     * @param maxFrequency highest clock the board supports.
     */
    DeviceModel(std::string name, int cols, int rows, int rowsPerDie,
                const ResourceVector &total, const MemorySystem &memory,
                int memoryRow, Hertz maxFrequency);

    const std::string &name() const { return name_; }
    int cols() const { return cols_; }
    int rows() const { return rows_; }
    int numSlots() const { return cols_ * rows_; }
    int numDies() const { return numDies_; }
    Hertz maxFrequency() const { return maxFrequency_; }

    const Slot &slot(int col, int row) const;
    const Slot &slot(const SlotCoord &c) const { return slot(c.col, c.row); }
    const std::vector<Slot> &slots() const { return slots_; }

    /** Total resources across all slots (paper Table 2 for U55C). */
    const ResourceVector &totalResources() const { return total_; }

    const MemorySystem &memory() const { return memory_; }

    /** Grid row where memory channels surface; -1 if none. */
    int memoryRow() const { return memoryRow_; }

    /** On-chip SRAM aggregate bandwidth (paper Table 9: 35 TBps). */
    BytesPerSecond onChipBandwidth() const { return onChipBandwidth_; }
    void setOnChipBandwidth(BytesPerSecond b) { onChipBandwidth_ = b; }

    /** On-chip SRAM capacity (43 MB on the U55C). */
    Bytes onChipCapacity() const { return onChipCapacity_; }
    void setOnChipCapacity(Bytes b) { onChipCapacity_ = b; }

  private:
    std::string name_;
    int cols_;
    int rows_;
    int numDies_;
    ResourceVector total_;
    MemorySystem memory_;
    int memoryRow_;
    Hertz maxFrequency_;
    BytesPerSecond onChipBandwidth_ = 0.0;
    Bytes onChipCapacity_ = 0;
    std::vector<Slot> slots_;
};

/**
 * Catalog of modeled boards.
 * @{
 */

/** Alveo U55C: 3 SLRs, 2x3 slot grid, 16 GB HBM2 at 460 GBps in the
 *  bottom row, 300 MHz max clock (paper Table 2 / section 2). */
DeviceModel makeU55C();

/** Alveo U250: 4 SLRs, 2x4 slot grid, 4-channel DDR4, no HBM. */
DeviceModel makeU250();

/** Alveo U280: 3 SLRs, 8 GB HBM2 at 460 GBps in the bottom row
 *  (the U55C's predecessor, slightly more fabric). */
DeviceModel makeU280();

/** Find a catalog device by name ("U55C", "U250", "U280", or the
 *  same in lower case); InvalidInput naming the catalog otherwise. */
StatusOr<DeviceModel> makeDeviceByName(const std::string &name);

/** @} */

} // namespace tapacs

#endif // TAPACS_DEVICE_DEVICE_HH
