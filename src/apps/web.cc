#include "src/apps/web.h"

#include <cstdio>
#include <tuple>
#include <utility>

#include "src/util/check.h"

namespace airfair {

bool WebServer::FlowKeyLess::operator()(const FlowKey& a, const FlowKey& b) const {
  return std::tie(a.src_node, a.dst_node, a.src_port, a.dst_port, a.protocol) <
         std::tie(b.src_node, b.dst_node, b.src_port, b.dst_port, b.protocol);
}

WebServer::WebServer(Host* host, uint16_t port)
    : host_(host), listener_(host, port, TcpConfig()) {
  listener_.on_accept = [this](TcpSocket* socket) { OnAccept(socket); };
}

void WebServer::OnAccept(TcpSocket* socket) {
  // Key connections by the *client's* outbound flow (the reverse of the
  // server socket's), matching what PushResponseSize receives.
  const FlowKey& out = socket->flow();
  const FlowKey client_flow{out.dst_node, out.src_node, out.dst_port, out.src_port,
                            /*protocol=*/6};
  Conn& conn = conns_[client_flow];
  conn.socket = socket;
  socket->on_data = [this, client_flow](int64_t bytes) {
    Conn& c = conns_[client_flow];
    c.buffered += bytes;
    while (c.buffered >= kRequestBytes) {
      c.buffered -= kRequestBytes;
      if (c.response_sizes.empty()) {
        std::fprintf(stderr, "web server: request without announced size\n");
        break;
      }
      const int64_t size = c.response_sizes.front();
      c.response_sizes.pop_front();
      ++requests_served_;
      c.socket->Write(size);
    }
  };
}

void WebServer::PushResponseSize(const FlowKey& client_flow, int64_t bytes) {
  conns_[client_flow].response_sizes.push_back(bytes);
}

WebClient::WebClient(Host* host, uint32_t server_node, uint16_t server_port, WebServer* server)
    : host_(host),
      server_node_(server_node),
      server_port_(server_port),
      server_(server),
      dns_port_(host->AllocatePort()) {
  host_->BindPort(dns_port_, this);
}

WebClient::~WebClient() { host_->UnbindPort(dns_port_); }

void WebClient::Fetch(const WebPage& page, std::function<void(TimeUs)> done) {
  AF_DCHECK(!fetching_) << " overlapping WebClient::Fetch";
  fetching_ = true;
  page_ = page;
  done_ = std::move(done);
  started_ = host_->sim()->now();
  outstanding_requests_ = page.requests;
  conns_.clear();
  conns_.resize(kParallelConnections);

  // Step 1: DNS lookup (modelled as one small request/response exchange).
  PacketPtr packet = host_->NewPacket();
  packet->size_bytes = kDnsPacketBytes;
  packet->type = PacketType::kIcmpEchoRequest;
  packet->flow = FlowKey{host_->node_id(), server_node_, dns_port_, 0, /*protocol=*/1};
  host_->Send(std::move(packet));
}

void WebClient::Deliver(PacketPtr packet) {
  if (packet->type == PacketType::kIcmpEchoReply && fetching_) {
    OnDnsDone();
  }
}

void WebClient::OnDnsDone() {
  // Step 2: first connection fetches the HTML.
  conns_[0].pending.push_back(page_.BytesPerRequest());
  OpenConnection(0);
}

void WebClient::OpenConnection(int index) {
  Conn& conn = conns_[static_cast<size_t>(index)];
  conn.socket = std::make_unique<TcpSocket>(host_, TcpConfig());
  conn.socket->on_connected = [this, index] { IssueNext(index); };
  conn.socket->on_data = [this, index](int64_t bytes) { OnData(index, bytes); };
  conn.socket->Connect(server_node_, server_port_);
}

void WebClient::IssueNext(int index) {
  Conn& conn = conns_[static_cast<size_t>(index)];
  if (conn.pending.empty() || conn.expecting > 0) {
    return;
  }
  const int64_t size = conn.pending.front();
  conn.pending.pop_front();
  conn.expecting = size;
  server_->PushResponseSize(conn.socket->flow(), size);
  conn.socket->Write(WebServer::kRequestBytes);
}

void WebClient::OnData(int index, int64_t bytes) {
  Conn& conn = conns_[static_cast<size_t>(index)];
  conn.expecting -= bytes;
  if (conn.expecting > 0) {
    return;
  }
  conn.expecting = 0;
  --outstanding_requests_;

  const bool html_just_done =
      outstanding_requests_ == page_.requests - 1 && conns_[1].socket == nullptr;
  if (html_just_done && page_.requests > 1) {
    // Step 3: the HTML revealed the resource list; open the remaining
    // connections and spread the other requests round-robin.
    int target = 0;
    for (int r = 1; r < page_.requests; ++r) {
      conns_[static_cast<size_t>(target)].pending.push_back(page_.BytesPerRequest());
      target = (target + 1) % kParallelConnections;
    }
    for (int i = 1; i < kParallelConnections; ++i) {
      if (!conns_[static_cast<size_t>(i)].pending.empty()) {
        OpenConnection(i);
      }
    }
    IssueNext(0);
    return;
  }
  IssueNext(index);
  CheckComplete();
}

void WebClient::CheckComplete() {
  if (outstanding_requests_ > 0) {
    return;
  }
  fetching_ = false;
  const TimeUs plt = host_->sim()->now() - started_;
  // Connections are torn down lazily at the next Fetch: we are inside a
  // socket callback here, so destroying the socket now would be
  // use-after-free on return.
  if (done_) {
    auto done = std::move(done_);
    done(plt);
  }
}

}  // namespace airfair
