/**
 * @file
 * Lightweight named-statistics record.
 *
 * The simulator records its per-run scalars (events, HBM busy time,
 * transfer counts) by name and hands them back inside SimResult.
 */

#ifndef TAPACS_COMMON_STATS_HH
#define TAPACS_COMMON_STATS_HH

#include <map>
#include <string>

namespace tapacs
{

/**
 * Map from stat names to scalars.
 *
 * Instances are independent; the simulator owns one per run so that
 * parallel experiments never share mutable globals.
 */
class StatRegistry
{
  public:
    /** Overwrite the named scalar. */
    void set(const std::string &name, double value);

    /** Read a scalar; returns 0 for unknown names. */
    double get(const std::string &name) const;

  private:
    std::map<std::string, double> scalars_;
};

} // namespace tapacs

#endif // TAPACS_COMMON_STATS_HH
