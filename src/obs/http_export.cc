#include "obs/http_export.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace janus {
namespace obs {

namespace {
std::atomic<bool> g_quit_requested{false};
}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot

void HistogramSnapshot::Accumulate(const Histogram& histogram) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] += histogram.BucketCount(i);
  }
  count += histogram.Count();
  sum += histogram.Sum();
}

void HistogramSnapshot::Accumulate(const HistogramSnapshot& other) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

// ---------------------------------------------------------------------------
// IntrospectionHub

IntrospectionHub& IntrospectionHub::Global() {
  // Leaked: the HTTP thread and atexit linger loop may consult the hub
  // during process teardown.
  static IntrospectionHub* hub = new IntrospectionHub();
  return *hub;
}

void IntrospectionHub::RegisterMetricsSource(const MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const WriterMutexLock lock(mu_);
  if (std::find(registries_.begin(), registries_.end(), registry) ==
      registries_.end()) {
    registries_.push_back(registry);
  }
}

void IntrospectionHub::FoldRegistryLocked(const MetricsRegistry& registry) {
  for (const auto& [name, value] : registry.CounterValues()) {
    retired_counters_[name] += value;
  }
  for (const std::string& name : registry.HistogramNames()) {
    if (const Histogram* histogram = registry.FindHistogram(name)) {
      retired_histograms_[name].Accumulate(*histogram);
    }
  }
}

void IntrospectionHub::UnregisterMetricsSource(
    const MetricsRegistry* registry) {
  const WriterMutexLock lock(mu_);
  auto it = std::find(registries_.begin(), registries_.end(), registry);
  if (it == registries_.end()) return;
  // Retire rather than forget: a scrape racing (or following) engine
  // teardown still sees the source's final totals.
  FoldRegistryLocked(**it);
  registries_.erase(it);
}

int IntrospectionHub::RegisterStatusSource(
    std::string name, std::function<std::string()> provider) {
  const WriterMutexLock lock(mu_);
  const int id = next_status_id_++;
  status_sources_.push_back({id, std::move(name), std::move(provider)});
  return id;
}

void IntrospectionHub::UnregisterStatusSource(int id) {
  std::function<std::string()> provider;
  std::string name;
  {
    const WriterMutexLock lock(mu_);
    auto it = std::find_if(status_sources_.begin(), status_sources_.end(),
                           [id](const StatusSource& s) { return s.id == id; });
    if (it == status_sources_.end()) return;
    provider = std::move(it->provider);
    name = std::move(it->name);
    status_sources_.erase(it);
  }
  // Capture the final text outside the lock (providers may take their own
  // locks), then file it under a retired marker.
  std::string text;
  if (provider) text = provider();
  const WriterMutexLock lock(mu_);
  retired_status_.push_back("== " + name + " [retired] ==\n" + text);
}

std::map<std::string, std::int64_t> IntrospectionHub::MergedCounters() const {
  std::map<std::string, std::int64_t> merged;
  for (const auto& [name, value] : MetricsRegistry::Global().CounterValues()) {
    merged[name] += value;
  }
  const ReaderMutexLock lock(mu_);
  for (const MetricsRegistry* registry : registries_) {
    for (const auto& [name, value] : registry->CounterValues()) {
      merged[name] += value;
    }
  }
  for (const auto& [name, value] : retired_counters_) merged[name] += value;
  return merged;
}

std::map<std::string, HistogramSnapshot> IntrospectionHub::MergedHistograms()
    const {
  std::map<std::string, HistogramSnapshot> merged;
  const auto fold = [&merged](const MetricsRegistry& registry) {
    for (const std::string& name : registry.HistogramNames()) {
      if (const Histogram* histogram = registry.FindHistogram(name)) {
        merged[name].Accumulate(*histogram);
      }
    }
  };
  fold(MetricsRegistry::Global());
  const ReaderMutexLock lock(mu_);
  for (const MetricsRegistry* registry : registries_) fold(*registry);
  for (const auto& [name, snapshot] : retired_histograms_) {
    merged[name].Accumulate(snapshot);
  }
  return merged;
}

std::string IntrospectionHub::StatusText() const {
  // Providers are invoked under the reader lock: UnregisterStatusSource
  // takes mu_ exclusively, so once it returns no in-flight call here can
  // still reference the (possibly dying) engine behind the provider.
  const ReaderMutexLock lock(mu_);
  std::string out;
  for (const StatusSource& source : status_sources_) {
    out += "== " + source.name + " ==\n";
    if (source.provider) out += source.provider();
    if (!out.empty() && out.back() != '\n') out += '\n';
    out += '\n';
  }
  for (const std::string& text : retired_status_) {
    out += text;
    if (!out.empty() && out.back() != '\n') out += '\n';
    out += '\n';
  }
  if (out.empty()) out = "(no status sources registered)\n";
  return out;
}

void IntrospectionHub::ResetForTesting() {
  const WriterMutexLock lock(mu_);
  registries_.clear();
  status_sources_.clear();
  retired_counters_.clear();
  retired_histograms_.clear();
  retired_status_.clear();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

std::string PrometheusMetricName(std::string_view name) {
  std::string out = "janus_";
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string PrometheusEscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

void AppendHistogramExposition(std::string& out, const std::string& family,
                               const std::string& labels,
                               const HistogramSnapshot& snapshot) {
  // Prometheus buckets are cumulative; emit a line per non-empty log2
  // bucket (upper bound inclusive, which is exactly `le`), then +Inf.
  std::int64_t cumulative = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (snapshot.buckets[i] == 0) continue;
    cumulative += snapshot.buckets[i];
    out += family + "_bucket{" + labels +
           (labels.empty() ? "" : ",") + "le=\"" +
           std::to_string(Histogram::BucketUpperBound(i)) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += family + "_bucket{" + labels + (labels.empty() ? "" : ",") +
         "le=\"+Inf\"} " + std::to_string(snapshot.count) + "\n";
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  out += family + "_sum" + suffix + " " + std::to_string(snapshot.sum) + "\n";
  out += family + "_count" + suffix + " " + std::to_string(snapshot.count) +
         "\n";
}

}  // namespace

std::string RenderPrometheusText() {
  IntrospectionHub& hub = IntrospectionHub::Global();
  std::string out;

  // Counters. Distinct registry names may sanitize to the same Prometheus
  // name ("cache.hits" / "cache_hits"); sum them under one series.
  std::map<std::string, std::int64_t> counters;
  for (const auto& [name, value] : hub.MergedCounters()) {
    counters[PrometheusMetricName(name)] += value;
  }
  for (const auto& [name, value] : counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }

  std::map<std::string, HistogramSnapshot> families;
  for (const auto& [name, snapshot] : hub.MergedHistograms()) {
    families[PrometheusMetricName(name)].Accumulate(snapshot);
  }
  for (const auto& [family, snapshot] : families) {
    out += "# TYPE " + family + " histogram\n";
    AppendHistogramExposition(out, family, "", snapshot);
  }
  // Sampled kernel time: every registered plan profile's node histograms
  // rolled up by op into one labeled family, so an unbounded op vocabulary
  // cannot explode the exposition's family count. Absent until the
  // sampler (profiling or tracing) has recorded something.
  std::map<std::string, HistogramSnapshot> kernel_ops;
  for (const auto& profile : ProfileRegistry::Global().Profiles()) {
    for (int i = 0; i < profile->num_nodes(); ++i) {
      const Histogram* samples = profile->Samples(i);
      if (samples != nullptr && samples->Count() > 0) {
        kernel_ops[profile->nodes()[static_cast<std::size_t>(i)].op]
            .Accumulate(*samples);
      }
    }
  }
  if (!kernel_ops.empty()) {
    out += "# TYPE janus_kernel_ns histogram\n";
    for (const auto& [op, snapshot] : kernel_ops) {
      const std::string labels =
          "op=\"" + PrometheusEscapeLabelValue(op) + "\"";
      AppendHistogramExposition(out, "janus_kernel_ns", labels, snapshot);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// HTTP server

HttpExportServer& HttpExportServer::Global() {
  // Leaked: the accept thread and atexit linger loop may outlive statics.
  static HttpExportServer* server = new HttpExportServer();
  return *server;
}

HttpExportServer::~HttpExportServer() { Stop(); }

bool HttpExportServer::QuitRequested() {
  return g_quit_requested.load(std::memory_order_relaxed);
}

void HttpExportServer::RequestQuit() {
  g_quit_requested.store(true, std::memory_order_relaxed);
}

HttpResponse HttpExportServer::HandlePath(std::string_view path) {
  std::string_view query;
  if (const std::size_t qmark = path.find('?');
      qmark != std::string_view::npos) {
    query = path.substr(qmark + 1);
    path = path.substr(0, qmark);
  }
  HttpResponse response;
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheusText();
    return response;
  }
  if (path == "/statusz") {
    response.body = IntrospectionHub::Global().StatusText();
    return response;
  }
  if (path == "/flightz") {
    std::size_t limit = 256;
    constexpr std::string_view kParam = "n=";
    if (const std::size_t pos = query.find(kParam);
        pos != std::string_view::npos &&
        (pos == 0 || query[pos - 1] == '&')) {
      const long long parsed =
          std::atoll(std::string(query.substr(pos + kParam.size())).c_str());
      if (parsed > 0) limit = static_cast<std::size_t>(parsed);
    }
    // The newest decisions from the trace rings; an empty trace while
    // tracing is off.
    response.content_type = "application/json";
    response.body = Trace::ToChromeJson(Trace::CollectDecisions(limit));
    return response;
  }
  if (path == "/profilez") {
    // Source-attributed profiler: per-unit / per-source-line cost report.
    response.body = RenderProfileText();
    return response;
  }
  if (path == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (path == "/quitquitquit") {
    RequestQuit();
    response.body = "bye\n";
    return response;
  }
  if (path == "/" || path.empty()) {
    response.body =
        "janus introspection\n"
        "  /metrics   Prometheus text exposition\n"
        "  /statusz   engine status reports\n"
        "  /flightz   recent decision events (Chrome-trace JSON, ?n=N)\n"
        "  /profilez  source-attributed profile\n"
        "  /healthz   liveness probe\n"
        "  /quitquitquit  release a lingering process\n";
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

bool HttpExportServer::Start(int port) {
  if (running_.load(std::memory_order_acquire)) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    JANUS_LOG(kError) << "http_export: socket() failed: "
                      << std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, never 0.0.0.0
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    JANUS_LOG(kError) << "http_export: cannot listen on 127.0.0.1:" << port
                      << ": " << std::strerror(errno);
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_.store(fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  JANUS_LOG(kInfo) << "http_export: serving on http://127.0.0.1:" << port_
                   << " (/metrics /statusz /flightz /profilez)";
  return true;
}

void HttpExportServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(); the loop observes running_ == false and exits. The
  // fd stays valid (and != -1) until the thread has joined, so the loop
  // never reads a clobbered descriptor.
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.store(-1, std::memory_order_release);
}

void HttpExportServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpExportServer::ServeConnection(int fd) {
  // Read until the request line is complete (first LF) — a client may
  // legally deliver "GET /metrics HTTP/1.1\r\n" across several segments.
  char buffer[4096];
  std::size_t total = 0;
  while (total < sizeof(buffer) - 1) {
    const ssize_t n =
        ::recv(fd, buffer + total, sizeof(buffer) - 1 - total, 0);
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
    if (std::string_view(buffer, total).find('\n') != std::string_view::npos) {
      break;
    }
  }
  if (total == 0) return;
  buffer[total] = '\0';
  // "GET <path> HTTP/1.x" — method then target; everything else ignored.
  std::string_view request(buffer, total);
  HttpResponse response;
  const std::size_t method_end = request.find(' ');
  if (method_end == std::string_view::npos) {
    response.status = 400;
    response.body = "bad request\n";
  } else {
    const std::size_t path_end = request.find_first_of(" \r\n", method_end + 1);
    const std::string_view target = request.substr(
        method_end + 1, path_end == std::string_view::npos
                            ? std::string_view::npos
                            : path_end - method_end - 1);
    response = HandlePath(target);
  }
  const char* reason = response.status == 200   ? "OK"
                       : response.status == 404 ? "Not Found"
                                                : "Bad Request";
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     reason + "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  const auto send_all = [fd](std::string_view data) {
    while (!data.empty()) {
      const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (sent <= 0) return;
      data.remove_prefix(static_cast<std::size_t>(sent));
    }
  };
  send_all(head);
  send_all(response.body);
}

namespace {

// JANUS_HTTP_PORT=<port>: start the introspection server at static-init
// time so any binary becomes scrape-able with no code changes.
// JANUS_HTTP_LINGER_MS=<ms>: after main returns, keep serving for up to
// <ms> (or until /quitquitquit) so scrapers can collect final metrics from
// short-lived batch binaries; the trace and profile atexit dumps still
// run.
struct HttpEnvInit {
  HttpEnvInit() {
    const char* port_env = std::getenv("JANUS_HTTP_PORT");
    if (port_env == nullptr || *port_env == '\0') return;
    char* end = nullptr;
    const long parsed = std::strtol(port_env, &end, 10);
    if (end == port_env || parsed < 0 || parsed > 65535) {
      JANUS_LOG(kError) << "http_export: invalid JANUS_HTTP_PORT '"
                        << port_env << "'";
      return;
    }
    if (!HttpExportServer::Global().Start(static_cast<int>(parsed))) return;
    static long linger_ms = 0;
    if (const char* linger_env = std::getenv("JANUS_HTTP_LINGER_MS");
        linger_env != nullptr && *linger_env != '\0') {
      linger_ms = std::strtol(linger_env, nullptr, 10);
    }
    std::atexit([] {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(linger_ms);
      while (linger_ms > 0 && !HttpExportServer::QuitRequested() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      HttpExportServer::Global().Stop();
    });
  }
};
const HttpEnvInit http_env_init;

}  // namespace
}  // namespace obs
}  // namespace janus
