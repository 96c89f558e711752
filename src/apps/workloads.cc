#include "apps/workloads.hh"

#include <algorithm>
#include <climits>

#include "apps/cnn.hh"
#include "apps/knn.hh"
#include "apps/pagerank.hh"
#include "apps/stencil.hh"

namespace tapacs::apps
{

Status
buildWorkload(const std::string &name, int fpgas, std::int64_t scale,
              AppDesign *out)
{
    const std::int64_t clamped = std::min<std::int64_t>(scale, INT_MAX);
    if (name == "stencil") {
        const int iters = clamped > 0 ? static_cast<int>(clamped) : 64;
        *out = buildStencil(StencilConfig::scaled(iters, fpgas));
    } else if (name == "pagerank") {
        GraphDataset dataset = pagerankDatasets()[0];
        if (clamped > 0) {
            // The ~11 edges/node average of the paper's Table 5
            // networks.
            dataset.name = "synthetic-" + std::to_string(clamped);
            dataset.nodes = clamped;
            dataset.edges = clamped * 11;
        }
        *out = buildPageRank(PageRankConfig::scaled(dataset, fpgas));
    } else if (name == "knn") {
        const std::int64_t n = scale > 0 ? scale : 1'000'000;
        *out = buildKnn(KnnConfig::scaled(n, 2, fpgas));
    } else if (name == "cnn") {
        CnnConfig cnn;
        cnn.rows = 4;
        cnn.cols = 4;
        cnn.numFpgas = fpgas;
        cnn.batch = clamped > 0 ? static_cast<int>(clamped) : 4;
        cnn.numBlocks = 8;
        *out = buildCnn(cnn);
    } else {
        return Status::invalidInput(
            "unknown workload '%s' (want stencil|pagerank|knn|cnn)",
            name.c_str());
    }
    return Status();
}

} // namespace tapacs::apps
