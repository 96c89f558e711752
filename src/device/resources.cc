#include "device/resources.hh"

#include <limits>

#include "common/logging.hh"

namespace tapacs
{

const char *
toString(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Lut: return "LUT";
      case ResourceKind::Ff: return "FF";
      case ResourceKind::Bram: return "BRAM";
      case ResourceKind::Dsp: return "DSP";
      case ResourceKind::Uram: return "URAM";
    }
    return "?";
}

ResourceVector::ResourceVector(double lut, double ff, double bram,
                               double dsp, double uram)
{
    counts_[0] = lut;
    counts_[1] = ff;
    counts_[2] = bram;
    counts_[3] = dsp;
    counts_[4] = uram;
}

double &
ResourceVector::operator[](ResourceKind kind)
{
    return counts_[static_cast<int>(kind)];
}

double
ResourceVector::operator[](ResourceKind kind) const
{
    return counts_[static_cast<int>(kind)];
}

ResourceVector &
ResourceVector::operator+=(const ResourceVector &o)
{
    for (int i = 0; i < kNumResourceKinds; ++i)
        counts_[i] += o.counts_[i];
    return *this;
}

ResourceVector &
ResourceVector::operator-=(const ResourceVector &o)
{
    for (int i = 0; i < kNumResourceKinds; ++i)
        counts_[i] -= o.counts_[i];
    return *this;
}

ResourceVector &
ResourceVector::operator*=(double scale)
{
    for (int i = 0; i < kNumResourceKinds; ++i)
        counts_[i] *= scale;
    return *this;
}

bool
ResourceVector::fitsWithin(const ResourceVector &o) const
{
    for (int i = 0; i < kNumResourceKinds; ++i) {
        if (counts_[i] > o.counts_[i])
            return false;
    }
    return true;
}

double
ResourceVector::maxUtilization(const ResourceVector &capacity) const
{
    double worst = 0.0;
    for (int i = 0; i < kNumResourceKinds; ++i) {
        if (counts_[i] <= 0.0)
            continue;
        if (capacity.counts_[i] <= 0.0)
            return std::numeric_limits<double>::infinity();
        worst = std::max(worst, counts_[i] / capacity.counts_[i]);
    }
    return worst;
}

double
ResourceVector::utilization(ResourceKind kind,
                            const ResourceVector &capacity) const
{
    const double cap = capacity[kind];
    if (cap <= 0.0)
        return (*this)[kind] > 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 0.0;
    return (*this)[kind] / cap;
}

bool
ResourceVector::isZero() const
{
    for (double c : counts_) {
        if (c != 0.0)
            return false;
    }
    return true;
}

} // namespace tapacs
