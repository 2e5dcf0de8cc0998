// Figure 6: Jain's fairness index over per-station airtime, for UDP,
// unidirectional TCP and bidirectional TCP under each scheme.
//
// Paper shape: FIFO ~0.66, FQ-CoDel ~0.55, FQ-MAC ~0.73 (TCP download);
// Airtime close to 1 for all traffic types with a slight dip for
// bidirectional (client transmissions can only be compensated, not
// scheduled).

#include <cstdio>

#include "bench/bench_util.h"

using namespace airfair;

namespace {

double JainForCell(QueueScheme scheme, int traffic, int rep,
                   const ExperimentTiming& timing) {
  // traffic: 0 = UDP, 1 = TCP download, 2 = TCP bidirectional.
  TestbedConfig config;
  config.scheme = scheme;
  if (traffic == 0) {
    config.seed = 400 + static_cast<uint64_t>(rep);
    return RunUdpDownload(config, timing).jain_airtime;
  }
  config.seed = 420 + static_cast<uint64_t>(rep);
  TcpOptions options;
  options.bidirectional = traffic == 2;
  return RunTcpDownload(config, timing, options).jain_airtime;
}

}  // namespace

int main() {
  BenchReporter reporter("fig06_jain_index");
  std::printf("Figure 6: Jain's airtime fairness index (3-station testbed)\n");
  PrintHeaderRule();
  std::printf("%-10s %8s %8s %10s\n", "scheme", "UDP", "TCP dl", "TCP bidir");
  const ExperimentTiming timing = BenchTiming(25);
  const int reps = BenchRepetitions(3);
  const std::vector<QueueScheme>& schemes = AllSchemes();
  constexpr int kTraffics = 3;

  // The full (scheme, traffic, rep) grid: cell = scheme * 3 + traffic.
  const auto results = RunSchemeRepetitions<double>(
      static_cast<int>(schemes.size()) * kTraffics, reps, [&](int cell, int rep) {
        const QueueScheme scheme = schemes[static_cast<size_t>(cell / kTraffics)];
        return JainForCell(scheme, cell % kTraffics, rep, timing);
      });

  for (size_t s = 0; s < schemes.size(); ++s) {
    const double udp = MedianOf(results[s * kTraffics + 0]);
    const double tcp = MedianOf(results[s * kTraffics + 1]);
    const double bidir = MedianOf(results[s * kTraffics + 2]);
    std::printf("%-10s %8.3f %8.3f %10.3f\n", SchemeName(schemes[s]), udp, tcp, bidir);
  }
  std::printf("\nPaper (TCP dl): FIFO ~0.66, FQ-CoDel ~0.55, FQ-MAC ~0.73, Airtime ~0.97.\n");
  return 0;
}
