// Emulated web traffic (Section 4.2.2).
//
// Mimics the paper's cURL-based client: a DNS lookup, then the page HTML,
// then the remaining resources fetched over four parallel persistent TCP
// connections. Page-load time (PLT) is the total time from the start of the
// DNS lookup until the last byte of the last resource arrives.
//
// Payload contents are never materialised: a request is kRequestBytes of
// upstream TCP data, and the response size travels through a simulation-side
// metadata channel (WebServer::PushResponseSize) while the actual bytes are
// clocked through the simulated network.

#ifndef AIRFAIR_SRC_APPS_WEB_H_
#define AIRFAIR_SRC_APPS_WEB_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/host.h"
#include "src/net/tcp.h"
#include "src/util/time.h"

namespace airfair {

struct WebPage {
  int64_t total_bytes = 0;
  int requests = 0;

  // The paper's two test pages.
  static WebPage Small() { return WebPage{56 * 1024, 3}; }        // 56 KB, 3 requests.
  static WebPage Large() { return WebPage{3 * 1024 * 1024, 110}; }  // 3 MB, 110 requests.

  int64_t BytesPerRequest() const { return total_bytes / requests; }
};

class WebServer {
 public:
  static constexpr int kRequestBytes = 300;

  WebServer(Host* host, uint16_t port);

  // Simulation-side metadata: the response size for the next request that
  // will arrive on `client_flow` (the client socket's outbound flow).
  void PushResponseSize(const FlowKey& client_flow, int64_t bytes);

  int64_t requests_served() const { return requests_served_; }

 private:
  struct FlowKeyLess {
    bool operator()(const FlowKey& a, const FlowKey& b) const;
  };
  struct Conn {
    TcpSocket* socket = nullptr;
    int64_t buffered = 0;
    std::deque<int64_t> response_sizes;
  };

  void OnAccept(TcpSocket* socket);

  Host* host_;
  TcpListener listener_;
  std::map<FlowKey, Conn, FlowKeyLess> conns_;
  int64_t requests_served_ = 0;
};

class WebClient : public PacketEndpoint {
 public:
  static constexpr int kParallelConnections = 4;
  static constexpr int32_t kDnsPacketBytes = 84;

  WebClient(Host* host, uint32_t server_node, uint16_t server_port, WebServer* server);
  ~WebClient() override;

  // Fetches `page`; invokes `done` with the page-load time. One fetch at a
  // time.
  void Fetch(const WebPage& page, std::function<void(TimeUs)> done);

  void Deliver(PacketPtr packet) override;  // DNS reply.

 private:
  struct Conn {
    std::unique_ptr<TcpSocket> socket;
    std::deque<int64_t> pending;  // Response sizes still to be requested.
    int64_t expecting = 0;        // Bytes outstanding of the current response.
  };

  void OnDnsDone();
  void OpenConnection(int index);
  void IssueNext(int index);
  void OnData(int index, int64_t bytes);
  void CheckComplete();

  Host* host_;
  uint32_t server_node_;
  uint16_t server_port_;
  WebServer* server_;
  uint16_t dns_port_;

  WebPage page_;
  std::function<void(TimeUs)> done_;
  TimeUs started_;
  bool fetching_ = false;
  int outstanding_requests_ = 0;
  std::vector<Conn> conns_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_APPS_WEB_H_
