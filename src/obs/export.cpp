#include "obs/export.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace bfc::obs {
namespace {

bool valid_name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  const bool digit = c >= '0' && c <= '9';
  return alpha || c == '_' || c == ':' || (!first && digit);
}

void append_counter(std::string& out, const std::string& name,
                    std::int64_t value) {
  out += "# TYPE " + name + " counter\n";
  out += "# HELP " + name + " bfc counter\n";
  out += name + "_total " + std::to_string(value) + "\n";
}

void append_gauge(std::string& out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += "# TYPE " + name + " gauge\n";
  out += "# HELP " + name + " bfc gauge\n";
  out += name + " " + buf + "\n";
}

void append_histogram(std::string& out, const std::string& name,
                      const MetricSnapshot& m) {
  out += "# TYPE " + name + " histogram\n";
  out += "# HELP " + name + " bfc base-2 histogram\n";
  // The snapshot keeps non-empty buckets as (inclusive upper bound, count);
  // OpenMetrics wants the cumulative count at each le threshold.
  std::int64_t cumulative = 0;
  for (const auto& [upper, count] : m.hist_buckets) {
    cumulative += count;
    out += name + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += name + "_bucket{le=\"+Inf\"} " + std::to_string(m.hist_count) + "\n";
  out += name + "_sum " + std::to_string(m.hist_sum) + "\n";
  out += name + "_count " + std::to_string(m.hist_count) + "\n";
}

}  // namespace

std::string openmetrics_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name)
    out += valid_name_char(c, /*first=*/false) ? c : '_';
  if (out.empty() || !valid_name_char(out.front(), /*first=*/true))
    out.insert(out.begin(), '_');
  return out;
}

std::string render_openmetrics() {
  std::string out;
  for (const MetricSnapshot& m : Registry::instance().snapshot()) {
    const std::string name = openmetrics_name(m.name);
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        append_counter(out, name, m.value);
        break;
      case MetricSnapshot::Kind::kGauge:
        append_gauge(out, name, m.gauge);
        break;
      case MetricSnapshot::Kind::kHistogram:
        append_histogram(out, name, m);
        break;
    }
  }
  out += "# EOF\n";
  return out;
}

void write_openmetrics_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write metrics file: " + tmp);
    out << render_openmetrics();
    if (!out.flush())
      throw std::runtime_error("cannot flush metrics file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot rename metrics file into place: " +
                             path);
}

MetricsHttpServer::MetricsHttpServer(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("metrics server: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("metrics server: cannot listen on port " +
                             std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = static_cast<int>(ntohs(bound.sin_port));
  loop_ = std::jthread([this](const std::stop_token& st) { serve_loop(st); });
}

MetricsHttpServer::~MetricsHttpServer() {
  loop_.request_stop();
  if (loop_.joinable()) loop_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::int64_t MetricsHttpServer::requests_served() const noexcept {
  return served_.load(std::memory_order_relaxed);
}

void MetricsHttpServer::serve_loop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (re-check stop) or transient error
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Drain whatever fits of the request line + headers; the response is
    // the same regardless of the path, so parsing is not worth the code.
    char req[1024];
    (void)::read(client, req, sizeof(req));
    const std::string body = render_openmetrics();
    const std::string head =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/openmetrics-text; version=1.0.0; "
        "charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n";
    const std::string response = head + body;
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::write(client, response.data() + off, response.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    // Count before closing: a client that has read the whole response (EOF
    // comes with the close) must already see it in requests_served().
    served_.fetch_add(1, std::memory_order_relaxed);
    ::close(client);
  }
}

}  // namespace bfc::obs
