/**
 * @file
 * FPGA resource vectors.
 *
 * Every floorplanning decision in TAPA-CS is driven by five on-chip
 * resource types (paper Table 2): LUT, FF, BRAM (18K blocks), DSP
 * slices and URAM blocks. A ResourceVector carries one count per
 * type and supports the arithmetic the partitioners need (sums,
 * scaling, utilization ratios, threshold checks).
 */

#ifndef TAPACS_DEVICE_RESOURCES_HH
#define TAPACS_DEVICE_RESOURCES_HH

#include <array>
#include <string>

namespace tapacs
{

/** The resource types tracked on AMD/Xilinx UltraScale+ parts. */
enum class ResourceKind : int
{
    Lut = 0,
    Ff = 1,
    Bram = 2,
    Dsp = 3,
    Uram = 4,
};

/** Number of tracked resource kinds. */
constexpr int kNumResourceKinds = 5;

/** Short display name of a resource kind ("LUT", "FF", ...). */
const char *toString(ResourceKind kind);

/**
 * A count (or requirement) of each on-chip resource type.
 *
 * Stored as doubles: requirements coming out of the HLS estimator are
 * fractional-scaled and utilization math divides freely.
 */
class ResourceVector
{
  public:
    ResourceVector() { counts_.fill(0.0); }

    /** Construct from explicit per-kind counts. */
    ResourceVector(double lut, double ff, double bram, double dsp,
                   double uram);

    double &operator[](ResourceKind kind);
    double operator[](ResourceKind kind) const;

    ResourceVector &operator+=(const ResourceVector &o);
    ResourceVector &operator-=(const ResourceVector &o);
    ResourceVector &operator*=(double scale);

    friend ResourceVector operator+(ResourceVector a,
                                    const ResourceVector &b)
    {
        a += b;
        return a;
    }
    friend ResourceVector operator-(ResourceVector a,
                                    const ResourceVector &b)
    {
        a -= b;
        return a;
    }
    friend ResourceVector operator*(ResourceVector a, double s)
    {
        a *= s;
        return a;
    }

    bool operator==(const ResourceVector &o) const
    {
        return counts_ == o.counts_;
    }

    /** True if every component is <= the corresponding one in o. */
    bool fitsWithin(const ResourceVector &o) const;

    /**
     * Largest component-wise utilization ratio of *this against a
     * capacity vector; capacity components of zero with a nonzero
     * requirement yield +infinity.
     */
    double maxUtilization(const ResourceVector &capacity) const;

    /** Utilization ratio for one resource kind. */
    double utilization(ResourceKind kind,
                       const ResourceVector &capacity) const;

    /** True if all components are zero. */
    bool isZero() const;

  private:
    std::array<double, kNumResourceKinds> counts_;
};

} // namespace tapacs

#endif // TAPACS_DEVICE_RESOURCES_HH
