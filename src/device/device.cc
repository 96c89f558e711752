#include "device/device.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace tapacs
{

int
SlotCoord::manhattan(const SlotCoord &o) const
{
    return std::abs(col - o.col) + std::abs(row - o.row);
}

DeviceModel::DeviceModel(std::string name, int cols, int rows,
                         int rowsPerDie, const ResourceVector &total,
                         const MemorySystem &memory, int memoryRow,
                         Hertz maxFrequency)
    : name_(std::move(name)),
      cols_(cols),
      rows_(rows),
      total_(total),
      memory_(memory),
      memoryRow_(memoryRow),
      maxFrequency_(maxFrequency)
{
    tapacs_assert(cols_ > 0 && rows_ > 0 && rowsPerDie > 0);
    tapacs_assert(rows_ % rowsPerDie == 0);
    numDies_ = rows_ / rowsPerDie;
    const double inv = 1.0 / numSlots();
    slots_.reserve(numSlots());
    for (int row = 0; row < rows_; ++row) {
        for (int col = 0; col < cols_; ++col) {
            Slot s;
            s.coord = {col, row};
            s.die = row / rowsPerDie;
            s.capacity = total_ * inv;
            s.exposesMemory = (row == memoryRow_);
            slots_.push_back(s);
        }
    }
}

const Slot &
DeviceModel::slot(int col, int row) const
{
    tapacs_assert(col >= 0 && col < cols_ && row >= 0 && row < rows_);
    return slots_[static_cast<size_t>(row) * cols_ + col];
}

DeviceModel
makeU55C()
{
    // Paper Table 2.
    const ResourceVector total(1146240, 2292480, 1776, 8376, 960);

    MemorySystem hbm;
    hbm.channels = 32; // HBM2 pseudo-channels exposed to user kernels
    hbm.aggregateBandwidth = gBytesPerSecToBytesPerSec(460.0);
    hbm.capacity = 16_GiB;
    hbm.saturatingPortWidthBits = 512;

    // "a grid with 6 slots divided into two columns and 3 rows";
    // all HBM channels surface in the bottom-most die (row 0).
    DeviceModel dev("U55C", /*cols=*/2, /*rows=*/3, /*rowsPerDie=*/1,
                    total, hbm, /*memoryRow=*/0, 300_MHz);
    dev.setOnChipBandwidth(gBytesPerSecToBytesPerSec(35000.0));
    dev.setOnChipCapacity(43_MB);
    return dev;
}

DeviceModel
makeU250()
{
    // Alveo U250: 4 SLRs; DDR4-2400 x4 channels (~77 GBps aggregate).
    const ResourceVector total(1728000, 3456000, 2688, 12288, 1280);

    MemorySystem ddr;
    ddr.channels = 4;
    ddr.aggregateBandwidth = gBytesPerSecToBytesPerSec(77.0);
    ddr.capacity = 64_GiB;
    ddr.saturatingPortWidthBits = 512;

    DeviceModel dev("U250", /*cols=*/2, /*rows=*/4, /*rowsPerDie=*/1,
                    total, ddr, /*memoryRow=*/0, 300_MHz);
    dev.setOnChipBandwidth(gBytesPerSecToBytesPerSec(38000.0));
    dev.setOnChipCapacity(54_MB);
    return dev;
}

DeviceModel
makeU280()
{
    // Alveo U280: 3 SLRs, 8 GB HBM2e, slightly more fabric than the
    // U55C (the U55C is its HBM-doubled successor).
    const ResourceVector total(1303680, 2607360, 2016, 9024, 960);

    MemorySystem hbm;
    hbm.channels = 32;
    hbm.aggregateBandwidth = gBytesPerSecToBytesPerSec(460.0);
    hbm.capacity = 8_GiB;
    hbm.saturatingPortWidthBits = 512;

    DeviceModel dev("U280", /*cols=*/2, /*rows=*/3, /*rowsPerDie=*/1,
                    total, hbm, /*memoryRow=*/0, 300_MHz);
    dev.setOnChipBandwidth(gBytesPerSecToBytesPerSec(38000.0));
    dev.setOnChipCapacity(41_MB);
    return dev;
}

StatusOr<DeviceModel>
makeDeviceByName(const std::string &name)
{
    if (name == "U55C" || name == "u55c")
        return makeU55C();
    if (name == "U250" || name == "u250")
        return makeU250();
    if (name == "U280" || name == "u280")
        return makeU280();
    return Status::invalidInput(
        "unknown device '%s' (catalog: U55C, U250, U280)", name.c_str());
}

} // namespace tapacs
