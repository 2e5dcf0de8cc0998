#include "src/mac/channel_model.h"
#include "src/util/check.h"

#include <algorithm>
#include <cmath>

namespace airfair {

double RequiredSnrDb(int mcs_index) {
  AF_DCHECK(mcs_index >= 0 && mcs_index <= 15) << " MCS index out of range";
  // Per-stream modulation ladder (BPSK1/2 ... 64QAM5/6); the second spatial
  // stream (MCS 8-15) needs ~3 dB more at the same modulation.
  static const double kPerStream[8] = {2.0, 5.0, 7.5, 10.5, 14.0, 18.0, 19.5, 21.0};
  const int stream_mcs = mcs_index % 8;
  const int streams = mcs_index / 8;
  return kPerStream[stream_mcs] + 3.0 * streams;
}

double MpduErrorProbability(double snr_db, int mcs_index) {
  // Width of the PER transition region in dB (smaller = sharper waterfall).
  constexpr double kTransitionDb = 1.5;
  // Residual error floor even far above the required SNR (retries exist in
  // any real deployment).
  constexpr double kErrorFloor = 0.005;
  const double margin = snr_db - RequiredSnrDb(mcs_index);
  const double p = 1.0 / (1.0 + std::exp(margin / kTransitionDb));
  return std::clamp(p + kErrorFloor, 0.0, 1.0);
}

int BestMcsForSnr(double snr_db, double max_error) {
  int best = -1;
  double best_rate = 0;
  for (int mcs = 0; mcs <= 15; ++mcs) {
    if (MpduErrorProbability(snr_db, mcs) <= max_error) {
      // The MCS ladder is not monotone in throughput across the stream
      // boundary (MCS 8 < MCS 7), so track the best rate explicitly.
      static const double kMbps[16] = {6.5,  13,  19.5, 26,  39,  52,  58.5, 65,
                                       13,   26,  39,   52,  78,  104, 117,  130};
      if (kMbps[mcs] > best_rate) {
        best_rate = kMbps[mcs];
        best = mcs;
      }
    }
  }
  return best;
}

}  // namespace airfair
