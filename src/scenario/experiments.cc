#include "src/scenario/experiments.h"

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/apps/voip.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"

namespace airfair {

namespace {

constexpr uint16_t kBulkPort = 5001;
constexpr uint16_t kUploadPort = 5002;
constexpr uint16_t kUdpPort = 6001;
constexpr uint16_t kVoipPort = 7001;
constexpr uint16_t kWebPort = 80;

// Jain's index over the stations flagged in `bulk` (ping-only stations are
// excluded, as in the paper's fairness figures).
double JainOverBulk(const std::vector<double>& shares, const std::vector<bool>& bulk) {
  std::vector<double> selected;
  for (size_t i = 0; i < shares.size(); ++i) {
    if (i < bulk.size() && bulk[i]) {
      selected.push_back(shares[i]);
    }
  }
  return JainFairnessIndex(selected);
}

void FillAggregation(AccessPoint& ap, int n, StationMeasurements* out) {
  out->mean_aggregation.resize(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    out->mean_aggregation[static_cast<size_t>(i)] = ap.AggregationStats(i).mean();
  }
}

}  // namespace

StationMeasurements RunUdpDownload(const TestbedConfig& config, const ExperimentTiming& timing,
                                   double offered_bps_per_station) {
  Testbed tb(config);
  const int n = tb.station_count();

  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < n; ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), kUdpPort));
    UdpSource::Config src;
    src.rate_bps = offered_bps_per_station;
    sources.push_back(
        std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), kUdpPort, src));
    sources.back()->Start();
  }

  tb.sim().RunFor(timing.warmup);
  tb.StartMeasurement();
  for (auto& sink : sinks) {
    sink->StartMeasuring(tb.sim().now());
  }
  tb.sim().RunFor(timing.measure);

  StationMeasurements out;
  out.airtime_share = tb.AirtimeShares();
  out.jain_airtime = JainFairnessIndex(out.airtime_share);
  for (int i = 0; i < n; ++i) {
    const double mbps = static_cast<double>(sinks[static_cast<size_t>(i)]->measured_bytes()) *
                        8.0 / timing.measure.ToSeconds() / 1e6;
    out.throughput_mbps.push_back(mbps);
    out.total_throughput_mbps += mbps;
  }
  FillAggregation(tb.ap(), n, &out);
  return out;
}

StationMeasurements RunTcpDownload(const TestbedConfig& config, const ExperimentTiming& timing,
                                   const TcpOptions& options) {
  Testbed tb(config);
  const int n = tb.station_count();
  std::vector<bool> bulk = options.bulk;
  bulk.resize(static_cast<size_t>(n), options.bulk.empty());
  std::vector<bool> ping = options.ping;
  ping.resize(static_cast<size_t>(n), options.ping.empty());

  // Downstream bulk: a listener on each bulk station; the server connects
  // and writes forever. The accepted (receiving) socket is captured for
  // goodput measurement.
  std::vector<std::unique_ptr<TcpListener>> listeners(static_cast<size_t>(n));
  std::vector<TcpSocket*> receivers(static_cast<size_t>(n), nullptr);
  std::vector<std::unique_ptr<TcpSocket>> senders;
  for (int i = 0; i < n; ++i) {
    if (!bulk[static_cast<size_t>(i)]) {
      continue;
    }
    listeners[static_cast<size_t>(i)] =
        std::make_unique<TcpListener>(tb.station_host(i), kBulkPort, TcpConfig());
    // NOTE: the paper's download direction means the *server-side* accepted
    // socket is the receiver of nothing; the station-side accepted socket
    // receives the bytes. Here the server is the connecting side, so the
    // station's listener accepts a socket that receives data.
    listeners[static_cast<size_t>(i)]->on_accept = [&receivers, i](TcpSocket* s) {
      receivers[static_cast<size_t>(i)] = s;
    };
    auto sender = std::make_unique<TcpSocket>(tb.server_host(), TcpConfig());
    sender->Connect(tb.station_node(i), kBulkPort);
    sender->WriteForever();
    senders.push_back(std::move(sender));
  }

  // Upstream bulk for the bidirectional variant.
  std::unique_ptr<TcpListener> upload_listener;
  std::vector<std::unique_ptr<TcpSocket>> uploaders;
  if (options.bidirectional) {
    upload_listener = std::make_unique<TcpListener>(tb.server_host(), kUploadPort, TcpConfig());
    for (int i = 0; i < n; ++i) {
      if (!bulk[static_cast<size_t>(i)]) {
        continue;
      }
      auto up = std::make_unique<TcpSocket>(tb.station_host(i), TcpConfig());
      up->Connect(tb.server_node(), kUploadPort);
      up->WriteForever();
      uploaders.push_back(std::move(up));
    }
  }

  // Latency probes.
  std::vector<std::unique_ptr<PingSender>> pings(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!ping[static_cast<size_t>(i)]) {
      continue;
    }
    pings[static_cast<size_t>(i)] = std::make_unique<PingSender>(
        tb.server_host(), tb.station_node(i), PingSender::Config());
    pings[static_cast<size_t>(i)]->Start();
  }

  tb.sim().RunFor(timing.warmup);
  tb.StartMeasurement();
  for (int i = 0; i < n; ++i) {
    if (receivers[static_cast<size_t>(i)] != nullptr) {
      receivers[static_cast<size_t>(i)]->StartMeasuring(tb.sim().now());
    }
    if (pings[static_cast<size_t>(i)] != nullptr) {
      pings[static_cast<size_t>(i)]->StartMeasuring(tb.sim().now());
    }
  }
  tb.sim().RunFor(timing.measure);

  StationMeasurements out;
  out.airtime_share = tb.AirtimeShares();
  out.jain_airtime = JainOverBulk(out.airtime_share, bulk);
  out.ping_rtt_ms.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double mbps = 0;
    if (receivers[static_cast<size_t>(i)] != nullptr) {
      mbps = static_cast<double>(receivers[static_cast<size_t>(i)]->measured_delivered_bytes()) *
             8.0 / timing.measure.ToSeconds() / 1e6;
    }
    out.throughput_mbps.push_back(mbps);
    out.total_throughput_mbps += mbps;
    if (pings[static_cast<size_t>(i)] != nullptr) {
      out.ping_rtt_ms[static_cast<size_t>(i)] = pings[static_cast<size_t>(i)]->rtt_ms();
    }
  }
  FillAggregation(tb.ap(), n, &out);
  return out;
}

SparseStationResult RunSparseStation(uint64_t seed, bool sparse_optimization, bool tcp_bulk,
                                     const ExperimentTiming& timing) {
  TestbedConfig config;
  config.seed = seed;
  config.scheme = QueueScheme::kAirtimeFair;
  config.stations = ThreeStationSetup();
  config.stations.push_back(FastStation("sparse"));
  config.mac_backend.scheduler.sparse_station_optimization = sparse_optimization;

  SparseStationResult result;
  if (tcp_bulk) {
    TcpOptions options;
    options.bulk = {true, true, true, false};
    options.ping = {false, false, false, true};
    StationMeasurements m = RunTcpDownload(config, timing, options);
    result.sparse_ping_rtt_ms = m.ping_rtt_ms[3];
    return result;
  }

  // UDP variant: saturating UDP to the three bulk stations, pings to the
  // sparse one.
  Testbed tb(config);
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<UdpSource>> sources;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(std::make_unique<UdpSink>(tb.station_host(i), kUdpPort));
    UdpSource::Config src;
    src.rate_bps = 60e6;
    sources.push_back(
        std::make_unique<UdpSource>(tb.server_host(), tb.station_node(i), kUdpPort, src));
    sources.back()->Start();
  }
  PingSender::Config ping_cfg;
  ping_cfg.interval = TimeUs::FromMilliseconds(100);
  PingSender ping(tb.server_host(), tb.station_node(3), ping_cfg);
  ping.Start();

  tb.sim().RunFor(timing.warmup);
  ping.StartMeasuring(tb.sim().now());
  tb.sim().RunFor(timing.measure);
  result.sparse_ping_rtt_ms = ping.rtt_ms();
  return result;
}

VoipResult RunVoip(QueueScheme scheme, uint64_t seed, bool vo_marking, TimeUs base_one_way_delay,
                   const ExperimentTiming& timing) {
  TestbedConfig config;
  config.seed = seed;
  config.scheme = scheme;
  // Three fast stations (including the "virtual" fourth station of Section
  // 4.2.1) plus the slow one.
  config.stations = {FastStation("fast-1"), FastStation("fast-2"), FastStation("fast-3"),
                     SlowStation("slow")};
  config.wire.one_way_delay = base_one_way_delay;
  const int slow_index = 3;

  Testbed tb(config);
  const int n = tb.station_count();

  // Bulk TCP download to every station (the slow one gets VoIP + bulk).
  std::vector<std::unique_ptr<TcpListener>> listeners(static_cast<size_t>(n));
  std::vector<TcpSocket*> receivers(static_cast<size_t>(n), nullptr);
  std::vector<std::unique_ptr<TcpSocket>> senders;
  for (int i = 0; i < n; ++i) {
    listeners[static_cast<size_t>(i)] =
        std::make_unique<TcpListener>(tb.station_host(i), kBulkPort, TcpConfig());
    listeners[static_cast<size_t>(i)]->on_accept = [&receivers, i](TcpSocket* s) {
      receivers[static_cast<size_t>(i)] = s;
    };
    auto sender = std::make_unique<TcpSocket>(tb.server_host(), TcpConfig());
    sender->Connect(tb.station_node(i), kBulkPort);
    sender->WriteForever();
    senders.push_back(std::move(sender));
  }

  // VoIP downstream to the slow station.
  VoipSink voip_sink(tb.station_host(slow_index), kVoipPort);
  VoipSource::Config voip_cfg;
  voip_cfg.tid = vo_marking ? kVoiceTid : kBestEffortTid;
  VoipSource voip(tb.server_host(), tb.station_node(slow_index), kVoipPort, voip_cfg);
  voip.Start();

  tb.sim().RunFor(timing.warmup);
  tb.StartMeasurement();
  voip_sink.StartMeasuring(tb.sim().now());
  for (auto* r : receivers) {
    if (r != nullptr) {
      r->StartMeasuring(tb.sim().now());
    }
  }
  tb.sim().RunFor(timing.measure);

  VoipResult result;
  result.quality = voip_sink.Quality();
  result.mos = voip_sink.Mos();
  for (auto* r : receivers) {
    if (r != nullptr) {
      result.total_throughput_mbps += static_cast<double>(r->measured_delivered_bytes()) * 8.0 /
                                      timing.measure.ToSeconds() / 1e6;
    }
  }
  return result;
}

WebResult RunWeb(QueueScheme scheme, uint64_t seed, const WebPage& page, bool slow_client,
                 TimeUs max_duration, int max_fetches) {
  TestbedConfig config;
  config.seed = seed;
  config.scheme = scheme;
  config.stations = ThreeStationSetup();

  Testbed tb(config);
  const int client_index = slow_client ? 2 : 0;

  // Bulk competitors: the paper's Figure 11 runs a bulk transfer to the slow
  // station while the fast station browses (and vice versa for the variant).
  std::vector<int> bulk_stations;
  if (slow_client) {
    bulk_stations = {0, 1};
  } else {
    bulk_stations = {2};
  }
  std::vector<std::unique_ptr<TcpListener>> listeners;
  std::vector<std::unique_ptr<TcpSocket>> senders;
  for (int i : bulk_stations) {
    listeners.push_back(
        std::make_unique<TcpListener>(tb.station_host(i), kBulkPort, TcpConfig()));
    auto sender = std::make_unique<TcpSocket>(tb.server_host(), TcpConfig());
    sender->Connect(tb.station_node(i), kBulkPort);
    sender->WriteForever();
    senders.push_back(std::move(sender));
  }

  WebServer server(tb.server_host(), kWebPort);
  WebClient client(tb.station_host(client_index), tb.server_node(), kWebPort, &server);

  WebResult result;
  double plt_sum_s = 0;
  bool fetch_in_progress = false;

  // Let the bulk flows ramp up before the first fetch.
  tb.sim().RunFor(TimeUs::FromSeconds(2));

  std::function<void()> start_fetch = [&] {
    fetch_in_progress = true;
    client.Fetch(page, [&](TimeUs plt) {
      plt_sum_s += plt.ToSeconds();
      ++result.completed_fetches;
      fetch_in_progress = false;
    });
  };

  const TimeUs deadline = tb.sim().now() + max_duration;
  start_fetch();
  while (tb.sim().now() < deadline && result.completed_fetches < max_fetches) {
    tb.sim().RunFor(TimeUs::FromMilliseconds(100));
    if (!fetch_in_progress && result.completed_fetches < max_fetches) {
      start_fetch();
    }
  }
  if (result.completed_fetches > 0) {
    result.mean_plt_s = plt_sum_s / result.completed_fetches;
  }
  return result;
}

TestbedConfig ThirtyStationConfig(QueueScheme scheme, uint64_t seed) {
  // 28 bulk stations with a spread of rates ("configured to select their
  // rate in the usual way"), one 1 Mbit/s legacy station, one ping-only
  // station.
  TestbedConfig config = ScaleConfig(29, scheme, seed);
  config.stations.push_back(FastStation("sparse"));
  return config;
}

TestbedConfig ScaleConfig(int stations, QueueScheme scheme, uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.scheme = scheme;
  config.stations.clear();
  const int kMcsSpread[] = {15, 12, 7, 4};
  for (int i = 0; i < stations - 1; ++i) {
    StationSpec spec;
    spec.rate = McsRate(kMcsSpread[i % 4], /*short_gi=*/true);
    spec.name = "fast-" + std::to_string(i + 1);
    config.stations.push_back(spec);
  }
  config.stations.push_back(LegacyStation("slow-1mbps"));
  return config;
}

}  // namespace airfair
