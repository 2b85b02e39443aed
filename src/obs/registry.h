#ifndef TSB_OBS_REGISTRY_H_
#define TSB_OBS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsb {
namespace obs {

/// Unified metrics export: every metrics-bearing component implements
/// MetricsSource and registers with one MetricsRegistry, which renders the
/// whole process's metrics as Prometheus text exposition or a JSON dump.
/// The registry owns nothing and samples lazily — Collect walks live
/// snapshot state on demand, so registration is free on the hot path.

/// A bucketed latency distribution (obs::LatencyHistogram's export form,
/// and the only latency sample kind): cumulative (upper_bound, count)
/// pairs ending with the +Inf bucket, exported as Prometheus histogram
/// series (`_bucket{le=..}` samples plus _count and _sum). Bucket counts
/// merge exactly across processes; quantiles are derived by the reader.
struct HistogramValue {
  uint64_t count = 0;
  double sum = 0.0;
  /// Cumulative buckets: (upper bound in seconds, observations <= bound).
  /// The last entry is always (+Inf, count).
  std::vector<std::pair<double, uint64_t>> buckets;
};

/// Receives one sample per call during collection. Label sets are small
/// ordered lists of key/value pairs; values are escaped by the renderers.
class MetricsSink {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  virtual ~MetricsSink() = default;
  virtual void Counter(std::string_view name, std::string_view help,
                       const Labels& labels, double value) = 0;
  virtual void Gauge(std::string_view name, std::string_view help,
                     const Labels& labels, double value) = 0;
  /// A bucketed distribution, exported as Prometheus histogram series.
  virtual void Histogram(std::string_view name, std::string_view help,
                         const Labels& labels,
                         const HistogramValue& value) = 0;
};

/// Anything that can describe its current state as typed samples.
class MetricsSource {
 public:
  virtual ~MetricsSource() = default;
  virtual void Collect(MetricsSink* sink) const = 0;
};

/// Adapts a lambda into a source, for one-off process gauges (uptime,
/// connections accepted, frames served) without a dedicated class.
class CallbackSource : public MetricsSource {
 public:
  explicit CallbackSource(std::function<void(MetricsSink*)> fn)
      : fn_(std::move(fn)) {}
  void Collect(MetricsSink* sink) const override { fn_(sink); }

 private:
  std::function<void(MetricsSink*)> fn_;
};

/// The per-process registry: non-owning list of sources, thread-safe
/// registration, render-on-demand. Sources must outlive the registry or
/// unregister first.
class MetricsRegistry {
 public:
  void Register(const MetricsSource* source);
  void Unregister(const MetricsSource* source);
  size_t num_sources() const;

  /// Prometheus text exposition format (version 0.0.4): `# HELP` and
  /// `# TYPE` headers once per metric family, samples grouped by name.
  std::string RenderPrometheus() const;

  /// The same samples as a JSON array of objects:
  /// {"name":..,"type":..,"labels":{..},"value":..} (histograms carry a
  /// nested value object with count, sum and cumulative buckets).
  std::string RenderJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<const MetricsSource*> sources_;
};

}  // namespace obs
}  // namespace tsb

#endif  // TSB_OBS_REGISTRY_H_
