#include "common/stats.hh"

namespace tapacs
{

void
StatRegistry::set(const std::string &name, double value)
{
    scalars_[name] = value;
}

double
StatRegistry::get(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

} // namespace tapacs
