// SNR-based per-MPDU error model.
//
// The paper's testbed controls station rates by placement ("placed further
// away and configured to only support the MCS0 rate"). To exercise the same
// code paths with *dynamic* rate selection (Section 3.1.1 takes the
// expected-throughput estimate "from the rate selection algorithm"), this
// model maps a station's signal-to-noise ratio and a candidate MCS to a
// per-MPDU error probability: each MCS has a required SNR; below it the
// error rate rises steeply (logistic in dB, a standard abstraction of the
// PER waterfall curves).

#ifndef AIRFAIR_SRC_MAC_CHANNEL_MODEL_H_
#define AIRFAIR_SRC_MAC_CHANNEL_MODEL_H_

namespace airfair {

// Required SNR (dB) to operate HT20 MCS `mcs_index` (0-15) near its error
// floor. Values follow the usual receiver-sensitivity ladder.
double RequiredSnrDb(int mcs_index);

// Per-MPDU error probability for a station at `snr_db` using `mcs_index`.
double MpduErrorProbability(double snr_db, int mcs_index);

// The highest MCS whose error probability stays below `max_error` at
// `snr_db` (the "oracle" rate; -1 if even MCS0 exceeds it).
int BestMcsForSnr(double snr_db, double max_error = 0.1);

}  // namespace airfair

#endif  // AIRFAIR_SRC_MAC_CHANNEL_MODEL_H_
