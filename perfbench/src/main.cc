// Cell runner of the repository benchmark (see perfbench/README.md).
//
//   airfair_perfbench --workload <name> --seed <n> --mode timed|traced
//                     --seconds <s> [--sim-scale <f>] [--inputs <n>]
//   airfair_perfbench --manifest
//
// Runs the workload's four scheme cells in sequence, repeating the set until
// the host-time budget is spent (at least --inputs times). Iteration i
// simulates input i % inputs, whose seed is InputSeed(seed, i % inputs),
// so every input is timed about equally often. Prints one JSON line per cell
// run, one per scheme with the model outputs pooled over the inputs, and a
// closing line with the process's peak RSS.
// perfbench/run.py turns these lines into the benchmark's metrics.
//
// timed:  each iteration times kSetupReps set-ups of all four cells (built,
//         wired and torn down unrun), then runs each cell once, as the
//         workload defines it.
// traced: each cell undecorated, then with the timing decorators on the
//         backend and qdisc seams. A workload that runs the program's own
//         trace (churn_observed) also runs the cell with that trace off, so
//         the decorated run has an undecorated twin and the trace's cost is
//         the difference.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// Process environment that changes what a cell simulates or costs. Threads
// and shards may be pinned to 1; everything else must be unset.
const char* const kPinnedToOne[] = {"AIRFAIR_THREADS", "AIRFAIR_SHARDS"};
const char* const kMustBeUnset[] = {
    "AIRFAIR_AUDIT",          "AIRFAIR_AUDIT_INTERVAL_MS", "AIRFAIR_AUDIT_WALL_MS",
    "AIRFAIR_CHURN_SEED",     "AIRFAIR_FAULT_SCHEDULE",    "AIRFAIR_HOST_BUS_US",
    "AIRFAIR_PACKET_POOL",    "AIRFAIR_SAMPLE_INTERVAL_MS", "AIRFAIR_TIMESERIES_JSON",
    "AIRFAIR_TRACE",          "AIRFAIR_TRACE_DISPATCH",    "AIRFAIR_TRACE_JSON",
    "AIRFAIR_TRACE_RING",
};

// Set-ups timed per iteration of a timed run.
constexpr int kSetupReps = 20;

bool EnvironmentIsClean() {
  bool clean = true;
  for (const char* name : kPinnedToOne) {
    const char* value = std::getenv(name);
    if (value != nullptr && std::strcmp(value, "1") != 0) {
      std::fprintf(stderr, "perfbench: refusing to time with %s=%s (must be unset or 1)\n",
                   name, value);
      clean = false;
    }
  }
  for (const char* name : kMustBeUnset) {
    if (const char* value = std::getenv(name); value != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to time with %s=%s set\n", name, value);
      clean = false;
    }
  }
  return clean;
}

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

// One JSON object on one line; keys are fixed identifiers, so strings need
// no escaping beyond what the values below can contain.
class JsonLine {
 public:
  JsonLine& Str(const char* key, const std::string& value) {
    Key(key);
    text_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
      }
      text_ += c;
    }
    text_ += '"';
    return *this;
  }
  JsonLine& Int(const char* key, int64_t value) {
    Key(key);
    text_ += std::to_string(value);
    return *this;
  }
  JsonLine& Num(const char* key, double value) {
    Key(key);
    if (!std::isfinite(value)) {
      text_ += "null";
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    text_ += buf;
    return *this;
  }
  JsonLine& Bool(const char* key, bool value) {
    Key(key);
    text_ += value ? "true" : "false";
    return *this;
  }
  JsonLine& Raw(const char* key, const std::string& json) {
    Key(key);
    text_ += json;
    return *this;
  }
  void Print() {
    std::printf("%s}\n", text_.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const char* key) {
    text_ += text_.size() == 1 ? "\"" : ",\"";
    text_ += key;
    text_ += "\":";
  }
  std::string text_ = "{";
};

std::string IntArray(const std::vector<int64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string SeamsJson(const SeamTimings& seams) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, stats] : seams.Named()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"calls\":%" PRId64 ",\"ns\":%" PRId64
                  ",\"p50_ns\":%.1f,\"p99_ns\":%.1f}",
                  first ? "" : ",", name.c_str(), stats->calls, stats->ns,
                  stats->hist.Quantile(0.50), stats->hist.Quantile(0.99));
    out += buf;
    first = false;
  }
  return out + "}";
}

void PrintCell(const char* workload, int iter, uint64_t seed, airfair::QueueScheme scheme,
               const char* variant, bool program_trace, const CellResult& c) {
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, ModelHash(c));
  JsonLine line;
  line.Str("kind", "cell")
      .Str("workload", workload)
      .Int("iter", iter)
      .Str("seed", std::to_string(seed))
      .Str("cell", CellName(scheme))
      .Str("variant", variant)
      .Bool("program_trace", program_trace)
      .Num("setup_s", c.setup_s)
      .Num("run_s", c.run_s)
      .Num("sim_s", c.sim_s)
      .Int("events", c.events)
      .Int("scheduled", c.scheduled)
      .Int("detached", c.detached)
      .Int("tokens_created", c.tokens_created)
      .Str("model_hash", hash)
      .Raw("delivered_bytes", IntArray(c.delivered_bytes))
      .Num("jain", c.jain)
      .Num("goodput_mbps", c.goodput_mbps)
      .Int("ping_samples", c.ping_samples)
      .Num("ping_p50_ms", c.ping_p50_ms)
      .Num("ping_p99_ms", c.ping_p99_ms)
      .Int("ledger_imbalance", c.ledger_imbalance)
      .Int("mac_tx", c.mac_tx)
      .Int("mac_collisions", c.mac_collisions)
      .Int("mac_mpdu_errors", c.mac_mpdu_errors)
      .Num("air_busy_s", c.air_busy_s)
      .Num("ampdu_mpdus", c.ampdu_mpdus)
      .Int("ampdu_count", c.ampdu_count)
      .Int("retry_drops", c.retry_drops)
      .Int("packets", c.packets)
      .Int("pool_chunks", c.pool_chunks)
      .Int("tcp_retransmits", c.tcp_retransmits)
      .Int("tcp_timeouts", c.tcp_timeouts)
      .Int("link_drops", c.link_drops)
      .Int("obs_records", c.obs_records)
      .Int("obs_overwritten", c.obs_overwritten)
      .Int("fault_leaves", c.fault_leaves)
      .Int("fault_joins", c.fault_joins)
      .Int("drained", c.drained)
      .Int("overflow_drops", c.overflow_drops)
      .Int("codel_drops", c.codel_drops);
  if (c.decorated) {
    line.Raw("seams", SeamsJson(c.seams));
  }
  line.Print();
}

// Model outputs of one scheme pooled over the inputs of a run: ping RTT
// samples merged, Jain index and goodput averaged.
struct ModelPool {
  airfair::SampleSet rtts;
  double jain_sum = 0;
  double goodput_sum = 0;
  int cells = 0;

  void Add(const CellResult& c) {
    rtts.Merge(c.rtts);
    jain_sum += c.jain;
    goodput_sum += c.goodput_mbps;
    ++cells;
  }
  void Print(const char* workload, airfair::QueueScheme scheme) {
    rtts.Sort();
    JsonLine line;
    line.Str("kind", "model")
        .Str("workload", workload)
        .Str("cell", CellName(scheme))
        .Int("iterations", cells)
        .Int("ping_samples", static_cast<int64_t>(rtts.count()))
        .Num("ping_p50_ms", rtts.Quantile(0.50))
        .Num("ping_p99_ms", rtts.Quantile(0.99))
        .Num("jain", jain_sum / cells)
        .Num("goodput_mbps", goodput_sum / cells);
    line.Print();
  }
};

void PrintManifest() {
  const auto env = [](const char* name) {
    const char* value = std::getenv(name);
    return std::string(value == nullptr ? "unset" : value);
  };
  JsonLine line;
  line.Str("kind", "manifest")
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("ndebug", IsReleaseBuild())
      .Str("compiler", __VERSION__)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("AIRFAIR_THREADS", env("AIRFAIR_THREADS"))
      .Str("AIRFAIR_SHARDS", env("AIRFAIR_SHARDS"))
      .Str("packet_pool", "on (pinned by the benchmark; env " + env("AIRFAIR_PACKET_POOL") + ")")
      .Str("threads_used", "1 (cells run in sequence on the main thread)");
  line.Print();
}

int Usage() {
  std::fprintf(stderr,
               "usage: airfair_perfbench --workload udp_overload|tcp_latency|churn_observed "
               "--seed N --mode timed|traced --seconds S [--sim-scale F] [--inputs N]\n"
               "       airfair_perfbench --manifest\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string mode;
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = -1;
  double sim_scale = 1.0;
  int inputs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--manifest") {
      PrintManifest();
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--mode") {
      mode = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--sim-scale") {
      sim_scale = std::atof(value);
    } else if (arg == "--inputs") {
      inputs = std::atoi(value);
    } else {
      return Usage();
    }
  }
  WorkloadId workload;
  if (!ParseWorkload(workload_name, &workload) || !have_seed || seconds < 0 ||
      (mode != "timed" && mode != "traced") || !(sim_scale > 0) || inputs < 1) {
    return Usage();
  }
  if (!IsReleaseBuild()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build (Release required)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (!EnvironmentIsClean()) {
    return 3;
  }

  const char* name = workload_name.c_str();
  const bool traced = mode == "traced";
  const bool default_trace = WorkloadTracesByDefault(workload);
  const airfair::QueueScheme schemes[] = {
      airfair::QueueScheme::kFifo, airfair::QueueScheme::kFqCodel,
      airfair::QueueScheme::kFqMac, airfair::QueueScheme::kAirtimeFair};
  CellOptions plain;
  plain.sim_scale = sim_scale;
  plain.program_trace = default_trace;

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  // The model outputs pool the first run of each input only, so they depend
  // on the seed and never on how many iterations the budget allows.
  ModelPool pools[std::size(schemes)];
  std::string setup_sums = "[";
  int iters = 0;
  double last_iter_s = 0;
  while (iters < inputs || elapsed() + last_iter_s <= seconds) {
    const double iter_start = elapsed();
    const uint64_t cell_seed = InputSeed(seed, iters % inputs);
    // Setting up all four cells takes 0.5-2 ms, so it is timed on its own,
    // kSetupReps times per iteration; the line lists each iteration's fastest.
    if (!traced) {
      double fastest = INFINITY;
      for (int r = 0; r < kSetupReps; ++r) {
        double sum = 0;
        for (const airfair::QueueScheme scheme : schemes) {
          sum += TimeSetup(workload, scheme, cell_seed, plain);
        }
        fastest = std::min(fastest, sum);
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.9g", setup_sums.size() == 1 ? "" : ",", fastest);
      setup_sums += buf;
    }
    for (size_t s = 0; s < std::size(schemes); ++s) {
      const airfair::QueueScheme scheme = schemes[s];
      const CellResult result = RunCell(workload, scheme, cell_seed, plain);
      PrintCell(name, iters, cell_seed, scheme, "plain", default_trace, result);
      if (iters < inputs) {
        pools[s].Add(result);
      }
      if (!traced) {
        continue;
      }
      CellOptions options = plain;
      options.program_trace = false;
      if (default_trace) {
        PrintCell(name, iters, cell_seed, scheme, "trace_off", false,
                  RunCell(workload, scheme, cell_seed, options));
      }
      options.decorate = true;
      PrintCell(name, iters, cell_seed, scheme, "decorated", false,
                RunCell(workload, scheme, cell_seed, options));
    }
    ++iters;
    last_iter_s = elapsed() - iter_start;
  }
  for (size_t s = 0; s < std::size(schemes); ++s) {
    pools[s].Print(name, schemes[s]);
  }
  if (!traced) {
    JsonLine line;
    line.Str("kind", "setup").Raw("setup_s", setup_sums + "]").Print();
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonLine line;
  line.Str("kind", "end")
      .Int("iterations", iters)
      .Num("wall_s", elapsed())
      .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  line.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
