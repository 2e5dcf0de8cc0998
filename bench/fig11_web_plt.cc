// Figure 11: HTTP page-load time for a small (56 KB / 3 requests) and a
// large (3 MB / 110 requests) page fetched by a fast station while the slow
// station runs a bulk transfer, plus the online-appendix variant where the
// slow station browses while fast stations run bulk transfers.
//
// Paper shape: fetch times fall monotonically FIFO -> FQ-CoDel -> FQ-MAC ->
// Airtime, with an order-of-magnitude drop from FIFO to FQ-CoDel (FIFO
// large-page fetches took 35 s).

#include <cstdio>

#include "bench/bench_util.h"

using namespace airfair;

namespace {

struct PltCell {
  double median_plt = 0;
  int fetches = 0;
};

PltCell MedianPlt(QueueScheme scheme, const WebPage& page, bool slow_client, int reps) {
  PltCell cell;
  std::vector<double> plt;
  for (int rep = 0; rep < reps; ++rep) {
    const WebResult r = RunWeb(scheme, 1000 + static_cast<uint64_t>(rep), page, slow_client,
                               TimeUs::FromSeconds(120), 3);
    if (r.completed_fetches > 0) {
      plt.push_back(r.mean_plt_s);
      cell.fetches += r.completed_fetches;
    }
  }
  cell.median_plt = MedianOf(plt);
  return cell;
}

}  // namespace

int main() {
  BenchReporter reporter("fig11_web_plt");
  std::printf("Figure 11: mean page-load time (seconds)\n");
  PrintHeaderRule();
  const int reps = BenchRepetitions(3);

  std::printf("Fast station browsing, slow station bulk (the paper's figure):\n");
  std::printf("%-10s %12s %12s\n", "scheme", "small page", "large page");
  for (QueueScheme scheme : AllSchemes()) {
    const PltCell small = MedianPlt(scheme, WebPage::Small(), false, reps);
    const PltCell large = MedianPlt(scheme, WebPage::Large(), false, reps);
    std::printf("%-10s %12.3f %12.3f   (fetches: %d/%d)\n", SchemeName(scheme),
                small.median_plt, large.median_plt, small.fetches, large.fetches);
  }

  std::printf("\nSlow station browsing, fast stations bulk (online-appendix variant):\n");
  std::printf("%-10s %12s\n", "scheme", "small page");
  for (QueueScheme scheme : AllSchemes()) {
    const PltCell small = MedianPlt(scheme, WebPage::Small(), true, reps);
    std::printf("%-10s %12.3f   (fetches: %d)\n", SchemeName(scheme), small.median_plt,
                small.fetches);
  }
  std::printf("\nPaper shape: monotone decrease toward Airtime; slow-station browsing\n");
  std::printf("pays 5-10%% more under Airtime (it is being throttled to its share).\n");
  return 0;
}
