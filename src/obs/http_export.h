// Live introspection: an embedded HTTP server plus the introspection hub
// it serves from.
//
// The hub is the aggregation point between producers with bounded
// lifetimes (engines come and go) and consumers with unbounded ones (a
// Prometheus scraper, a human with curl). Engines register their private
// MetricsRegistry and a status-text provider; when an engine is destroyed
// it unregisters, and the hub *retires* the source — folds the final
// counter/histogram values into persistent accumulators and keeps the
// final status text — so a scrape that races engine teardown (or arrives
// during the JANUS_HTTP_LINGER_MS window after main returns) still sees
// the totals instead of an empty page.
//
// Endpoints (text/plain but /flightz, loopback only):
//   /metrics       Prometheus text exposition 0.0.4: every counter and
//                  histogram from the global registry, live registered
//                  registries, and retired sources, merged by name; plus
//                  the plan profiles' sampled node times rolled up by op
//                  into one family, janus_kernel_ns{op="<op>"}.
//   /statusz       concatenated status text from every registered (and
//                  retired) provider — Engine::StatsReport() per engine.
//   /flightz       the newest decision events of the trace rings (the
//                  kDecisionCategory instants of obs/trace.h) as
//                  Chrome-trace JSON; ?n=N bounds the count (default 256).
//                  Empty while tracing is off (JANUS_TRACE).
//   /profilez      the source-attributed profile as text (obs/profile.h).
//   /healthz       "ok" liveness probe.
//   /quitquitquit  sets the quit flag polled by the linger loop, so CI
//                  can scrape a short-lived process and then release it
//                  for a clean exit (atexit dumps still run).
//
// Env: JANUS_HTTP_PORT=<port> starts the server at static-init time;
// JANUS_HTTP_LINGER_MS=<ms> keeps the process alive after main returns
// for at most that long (or until /quitquitquit), giving scrapers a
// window to collect final metrics from batch binaries.
#ifndef JANUS_OBS_HTTP_EXPORT_H_
#define JANUS_OBS_HTTP_EXPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace janus {
namespace obs {

// Point-in-time copy of one histogram, in the same log2 bucket geometry
// as obs::Histogram. Used both for retiring sources and for merging live
// ones into a single exposition.
struct HistogramSnapshot {
  std::int64_t buckets[Histogram::kNumBuckets] = {};
  std::int64_t count = 0;
  std::int64_t sum = 0;

  void Accumulate(const Histogram& histogram);
  void Accumulate(const HistogramSnapshot& other);
};

// Aggregates metrics and status text across every live and retired
// producer. All methods are thread-safe. Status providers are invoked
// while the hub holds its reader lock, so UnregisterStatusSource (which
// takes the lock exclusively) cannot return while a provider call is in
// flight — after it returns, the provider's captured state is safe to
// destroy. Providers must therefore never call back into the hub.
class IntrospectionHub {
 public:
  static IntrospectionHub& Global();

  // Metrics sources. The global MetricsRegistry is always included and
  // never needs registering. Unregister folds the source's current values
  // into the retired accumulators before dropping the pointer.
  void RegisterMetricsSource(const MetricsRegistry* registry);
  void UnregisterMetricsSource(const MetricsRegistry* registry);

  // Status sources (named, ordered by registration). Unregister captures
  // the provider's final text under a "[retired]" marker.
  int RegisterStatusSource(std::string name,
                           std::function<std::string()> provider);
  void UnregisterStatusSource(int id);

  // Merged views: counters summed by name; histograms bucket-summed by
  // name. Always includes MetricsRegistry::Global() plus live and retired
  // registered sources.
  std::map<std::string, std::int64_t> MergedCounters() const;
  std::map<std::string, HistogramSnapshot> MergedHistograms() const;

  // Every provider's text in registration order, retired sources last.
  std::string StatusText() const;

  void ResetForTesting();

 private:
  struct StatusSource {
    int id = 0;
    std::string name;
    std::function<std::string()> provider;
  };

  void FoldRegistryLocked(const MetricsRegistry& registry) REQUIRES(mu_);

  mutable SharedMutex mu_;
  std::vector<const MetricsRegistry*> registries_ GUARDED_BY(mu_);
  std::vector<StatusSource> status_sources_ GUARDED_BY(mu_);
  int next_status_id_ GUARDED_BY(mu_) = 1;
  std::map<std::string, std::int64_t> retired_counters_ GUARDED_BY(mu_);
  std::map<std::string, HistogramSnapshot> retired_histograms_
      GUARDED_BY(mu_);
  std::vector<std::string> retired_status_ GUARDED_BY(mu_);
};

// Prometheus text exposition 0.0.4 helpers, exposed for tests.
//
// Sanitizes a registry metric name into a Prometheus metric name:
// prefixes "janus_", maps every character outside [a-zA-Z0-9_:] to '_'.
std::string PrometheusMetricName(std::string_view name);
// Escapes a label value: backslash, double quote, and newline.
std::string PrometheusEscapeLabelValue(std::string_view value);
// Renders the full exposition from the hub's merged view.
std::string RenderPrometheusText();

// One parsed-and-routed HTTP exchange, exposed for tests.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpExportServer {
 public:
  static HttpExportServer& Global();

  ~HttpExportServer();

  // Binds 127.0.0.1:<port> (0 picks a free port) and starts the accept
  // thread. Returns false (with a log line) when the bind fails; a second
  // Start while running is a no-op returning true.
  bool Start(int port);
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  int port() const { return port_; }

  // Pure routing: maps a request path (query string allowed) to the
  // response the socket layer would serve. Static so tests can exercise
  // every endpoint without sockets.
  static HttpResponse HandlePath(std::string_view path);

  // True once /quitquitquit has been hit (or RequestQuit called); the
  // JANUS_HTTP_LINGER_MS loop polls this to release the process early.
  static bool QuitRequested();
  static void RequestQuit();

 private:
  HttpExportServer() = default;
  void AcceptLoop();
  void ServeConnection(int fd);

  std::atomic<bool> running_{false};
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;
};

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_HTTP_EXPORT_H_
