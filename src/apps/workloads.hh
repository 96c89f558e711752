/**
 * @file
 * The builtin workloads that manifests, design-space sweeps and the
 * golden harness name by string.
 */

#ifndef TAPACS_APPS_WORKLOADS_HH
#define TAPACS_APPS_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "apps/app_design.hh"
#include "common/status.hh"

namespace tapacs::apps
{

/**
 * Build builtin workload `name` (stencil|pagerank|knn|cnn) for
 * `fpgas` FPGAs. `scale` 0 gives the small configuration the golden
 * harness pins; otherwise it is the stencil iteration count, the
 * synthetic PageRank node count, the KNN point count or the CNN
 * batch size.
 *
 * @retval InvalidInput `name` is not a builtin workload.
 */
Status buildWorkload(const std::string &name, int fpgas,
                     std::int64_t scale, AppDesign *out);

} // namespace tapacs::apps

#endif // TAPACS_APPS_WORKLOADS_HH
