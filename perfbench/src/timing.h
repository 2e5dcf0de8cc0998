// Host-time spans at the two queueing seams of the access point, recorded
// from outside the simulator: a decorator over ApQueueBackend (installed with
// AccessPoint::SetBackend) and a decorator over Qdisc (handed to a
// benchmark-built QdiscBackend). Both forward every call unchanged, so a
// decorated cell simulates exactly what the undecorated cell does.

#ifndef AIRFAIR_PERFBENCH_SRC_TIMING_H_
#define AIRFAIR_PERFBENCH_SRC_TIMING_H_

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/aqm/queue_discipline.h"
#include "src/mac/ap_backend.h"

namespace perfbench {

// Per-call latencies in log buckets: 8 sub-buckets per power of two, so a
// quantile is resolved to within about 6%.
class LogHistogram {
 public:
  void Add(int64_t ns) { ++buckets_[BucketOf(ns < 0 ? 0 : static_cast<uint64_t>(ns))]; }

  // Midpoint of the bucket holding the q-th quantile; 0 when empty.
  double Quantile(double q) const {
    int64_t total = 0;
    for (const int64_t n : buckets_) {
      total += n;
    }
    if (total == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(total);
    int64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (static_cast<double>(seen) >= rank && buckets_[b] > 0) {
        return 0.5 * (LowerBound(b) + LowerBound(b + 1));
      }
    }
    return LowerBound(buckets_.size());
  }

 private:
  static constexpr int kSubBits = 3;
  static constexpr size_t kSub = size_t{1} << kSubBits;

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const int exp = 63 - std::countl_zero(v);
    const uint64_t mantissa = (v >> (exp - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(exp - kSubBits + 1) * kSub + static_cast<size_t>(mantissa);
  }
  static double LowerBound(size_t bucket) {
    if (bucket < kSub) {
      return static_cast<double>(bucket);
    }
    const size_t exp = bucket / kSub + kSubBits - 1;
    const size_t mantissa = bucket % kSub;
    return static_cast<double>((kSub + mantissa) << (exp - kSubBits));
  }

  std::array<int64_t, 64 * kSub> buckets_{};
};

// One seam operation: call count, summed host time and the per-call
// distribution.
struct SeamStats {
  int64_t calls = 0;
  int64_t ns = 0;
  LogHistogram hist;

  void Add(int64_t elapsed_ns) {
    ++calls;
    ns += elapsed_ns;
    hist.Add(elapsed_ns);
  }
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SeamStats* stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() {
    stats_->Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SeamStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

// Spans of one decorated cell, by seam operation.
struct SeamTimings {
  SeamStats enqueue;      // ApQueueBackend::Enqueue
  SeamStats has_pending;  // ApQueueBackend::HasPending
  SeamStats build_next;   // ApQueueBackend::BuildNext
  SeamStats requeue;      // ApQueueBackend::Requeue
  SeamStats account;      // AccountTxAirtime + AccountRxAirtime
  SeamStats flush;        // FlushStation
  SeamStats qdisc_enqueue;
  SeamStats qdisc_dequeue;

  std::vector<std::pair<std::string, const SeamStats*>> Named() const {
    return {{"enqueue", &enqueue},           {"has_pending", &has_pending},
            {"build_next", &build_next},     {"requeue", &requeue},
            {"account", &account},           {"flush", &flush},
            {"qdisc_enqueue", &qdisc_enqueue}, {"qdisc_dequeue", &qdisc_dequeue}};
  }
};

class TimedBackend : public airfair::ApQueueBackend {
 public:
  TimedBackend(std::unique_ptr<airfair::ApQueueBackend> inner, SeamTimings* timings)
      : inner_(std::move(inner)), t_(timings) {}

  void Enqueue(airfair::PacketPtr packet, airfair::StationId station) override {
    ScopedSpan span(&t_->enqueue);
    inner_->Enqueue(std::move(packet), station);
  }
  bool HasPending(airfair::AccessCategory ac) override {
    ScopedSpan span(&t_->has_pending);
    return inner_->HasPending(ac);
  }
  airfair::TxDescriptor BuildNext(airfair::AccessCategory ac) override {
    ScopedSpan span(&t_->build_next);
    return inner_->BuildNext(ac);
  }
  void Requeue(airfair::StationId station, airfair::Tid tid, airfair::Mpdu mpdu) override {
    ScopedSpan span(&t_->requeue);
    inner_->Requeue(station, tid, std::move(mpdu));
  }
  void AccountTxAirtime(airfair::StationId station, airfair::AccessCategory ac,
                        airfair::TimeUs airtime) override {
    ScopedSpan span(&t_->account);
    inner_->AccountTxAirtime(station, ac, airtime);
  }
  void AccountRxAirtime(airfair::StationId station, airfair::AccessCategory ac,
                        airfair::TimeUs airtime) override {
    ScopedSpan span(&t_->account);
    inner_->AccountRxAirtime(station, ac, airtime);
  }
  int64_t FlushStation(airfair::StationId station) override {
    ScopedSpan span(&t_->flush);
    return inner_->FlushStation(station);
  }
  int packet_count() const override { return inner_->packet_count(); }
  int64_t drops() const override { return inner_->drops(); }

  const airfair::ApQueueBackend& inner() const { return *inner_; }

 private:
  std::unique_ptr<airfair::ApQueueBackend> inner_;
  SeamTimings* t_;
};

class TimedQdisc : public airfair::Qdisc {
 public:
  TimedQdisc(std::unique_ptr<airfair::Qdisc> inner, SeamTimings* timings)
      : inner_(std::move(inner)), t_(timings) {}

  // The drop counter is a plain member of the Qdisc base, read by
  // QdiscBackend::drops(); mirror the inner qdisc's after every call.
  void Enqueue(airfair::PacketPtr packet) override {
    {
      ScopedSpan span(&t_->qdisc_enqueue);
      inner_->Enqueue(std::move(packet));
    }
    drops_ = inner_->drops();
  }
  airfair::PacketPtr Dequeue() override {
    airfair::PacketPtr packet;
    {
      ScopedSpan span(&t_->qdisc_dequeue);
      packet = inner_->Dequeue();
    }
    drops_ = inner_->drops();
    return packet;
  }
  int packet_count() const override { return inner_->packet_count(); }

  const airfair::Qdisc& inner() const { return *inner_; }

 private:
  std::unique_ptr<airfair::Qdisc> inner_;
  SeamTimings* t_;
};

}  // namespace perfbench

#endif  // AIRFAIR_PERFBENCH_SRC_TIMING_H_
