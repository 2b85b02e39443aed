#ifndef TSB_OBS_REGISTRY_H_
#define TSB_OBS_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/histogram.h"

namespace tsb {
namespace obs {

/// The one metric model: every recording class declares its metric
/// families once (MetricFamily), binds them to the fields of its cells
/// (CellTable), and exports by appending one read of those cells to a
/// MetricsRead. Every view — the Prometheus text exposition, the JSON
/// dump, the human tables and the `topctl top` fleet snapshot — is a
/// rendering of such a read, so no view keeps a copy of its own.

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// One metric family: name, help, kind and label keys, declared once by
/// the class that records it.
struct MetricFamily {
  std::string_view name;
  std::string_view help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::string_view> label_keys = {};
  /// The Prometheus/JSON renderings print a counter as count / unit (1e9
  /// exports a cpu_ns count as seconds); the read keeps the exact count.
  double unit = 1.0;
};

/// One sample of a family: a label set and its value. Histograms are
/// LatencyHistograms (exported as Prometheus bucket series: `_bucket{le}`
/// cumulative counts ending at +Inf, plus `_count` and `_sum`), so every
/// quantile a rendering derives is the recorder's own, bit for bit.
struct MetricSample {
  const MetricFamily* family = nullptr;
  std::vector<std::string> labels;  // Values, in label-key order.
  uint64_t count = 0;          // kCounter: exact.
  double value = 0.0;          // kGauge.
  LatencyHistogram histogram;  // kHistogram.

  /// Cell field → sample (Read) and back (RowAt). An integer is kept both
  /// exact (counters) and as a double (gauges).
  void Set(uint64_t v) {
    count = v;
    value = static_cast<double>(v);
  }
  void Set(const std::atomic<uint64_t>& v) {
    Set(v.load(std::memory_order_relaxed));
  }
  void Set(double v) { value = v; }
  void Set(const LatencyHistogram& h) { histogram = h; }
  void Get(uint64_t* v) const { *v = count; }
  void Get(std::atomic<uint64_t>* v) const {
    v->store(count, std::memory_order_relaxed);
  }
  void Get(double* v) const { *v = value; }
  void Get(LatencyHistogram* h) const { *h = histogram; }
};

/// One read of one or more sources: their samples in emission order. The
/// lookups match a family by name and a label set by its values in the
/// family's key order.
class MetricsRead {
 public:
  using LabelValues = std::initializer_list<std::string_view>;

  /// Appends a sample of `family`, which must outlive the read (declared
  /// families are static); `label_values` pair up with its label keys.
  MetricSample& Add(const MetricFamily& family,
                    const std::vector<std::string>& label_values);

  const std::vector<MetricSample>& samples() const { return samples_; }

  /// The family's sample with these label values; null when not exported.
  const MetricSample* Find(std::string_view name,
                           LabelValues label_values = {}) const;
  /// Every sample of the family, in read order.
  std::vector<const MetricSample*> All(std::string_view name) const;
  /// An integer sample's exact value — a counter, or a gauge read from an
  /// integer field (0 when not exported).
  uint64_t Count(std::string_view name, LabelValues label_values = {}) const;
  /// The family's Count summed over its label sets.
  uint64_t Sum(std::string_view name) const;

  /// Prometheus text exposition format (version 0.0.4): `# HELP` and
  /// `# TYPE` headers once per metric family, samples grouped by name.
  std::string RenderPrometheus() const;

  /// The same samples as a JSON array of objects:
  /// {"name":..,"type":..,"labels":{..},"value":..} (histograms carry a
  /// nested value object with count, sum and cumulative buckets).
  std::string RenderJson() const;

 private:
  std::vector<MetricSample> samples_;
};

/// One column of a cell table: a family and the field of `Cell` that
/// holds its value.
template <typename Cell>
struct MetricColumn {
  MetricFamily family;
  std::variant<uint64_t Cell::*, std::atomic<uint64_t> Cell::*,
               double Cell::*, LatencyHistogram Cell::*>
      field;
};

/// A recording class's declared export of one kind of cell: the label
/// keys every column shares, one column per family, and the gate — a
/// cell is exported when any gate counter is non-zero (always when the
/// gate is empty). Read appends a cell's samples, one per column in
/// column order; RowAt decodes them back, so a renderer of a read works
/// on typed cells and never names a family.
template <typename Cell>
class CellTable {
 public:
  CellTable(std::vector<std::string_view> label_keys,
            std::vector<MetricColumn<Cell>> columns,
            std::vector<uint64_t Cell::*> gate = {})
      : columns_(std::move(columns)), gate_(std::move(gate)) {
    for (MetricColumn<Cell>& column : columns_) {
      column.family.label_keys = label_keys;
    }
  }

  /// Appends `cell`'s samples unless the gate holds it back. The caller
  /// holds whatever lock guards the cell.
  void Read(const Cell& cell, const std::vector<std::string>& label_values,
            MetricsRead* read) const {
    if (!gate_.empty() &&
        std::none_of(gate_.begin(), gate_.end(),
                     [&cell](uint64_t Cell::*f) { return cell.*f != 0; })) {
      return;
    }
    for (const MetricColumn<Cell>& column : columns_) {
      MetricSample& sample = read->Add(column.family, label_values);
      std::visit([&](auto field) { sample.Set(cell.*field); }, column.field);
    }
  }

  /// True when sample `i` of `read` starts one of this table's cells;
  /// then `cell` holds that cell's values.
  bool RowAt(const MetricsRead& read, size_t i, Cell* cell) const {
    const std::vector<MetricSample>& samples = read.samples();
    if (i + columns_.size() > samples.size() ||
        samples[i].family != &columns_[0].family) {
      return false;
    }
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::visit([&](auto field) { samples[i + c].Get(&(cell->*field)); },
                 columns_[c].field);
    }
    return true;
  }

  /// fn(first sample, cell) for every cell of this table in `read`.
  template <typename Fn>
  void ForEachRow(const MetricsRead& read, Fn&& fn) const {
    Cell cell;
    for (size_t i = 0; i < read.samples().size(); ++i) {
      if (RowAt(read, i, &cell)) fn(read.samples()[i], cell);
    }
  }

  /// Adds `cell`'s uint64_t columns into `total`'s (a cross-cell sum).
  void Accumulate(const Cell& cell, Cell* total) const {
    for (const MetricColumn<Cell>& column : columns_) {
      if (auto* f = std::get_if<uint64_t Cell::*>(&column.field)) {
        total->*(*f) += cell.*(*f);
      }
    }
  }

 private:
  std::vector<MetricColumn<Cell>> columns_;
  std::vector<uint64_t Cell::*> gate_;
};

/// Anything that can describe its current state as typed samples.
class MetricsSource {
 public:
  virtual ~MetricsSource() = default;
  virtual void Collect(MetricsRead* read) const = 0;

  /// This source alone, read once.
  MetricsRead Read() const {
    MetricsRead read;
    Collect(&read);
    return read;
  }
};

/// Adapts a lambda into a source, for one-off process counters
/// (connections accepted, frames served) without a dedicated class.
class CallbackSource : public MetricsSource {
 public:
  explicit CallbackSource(std::function<void(MetricsRead*)> fn)
      : fn_(std::move(fn)) {}
  void Collect(MetricsRead* read) const override { fn_(read); }

 private:
  std::function<void(MetricsRead*)> fn_;
};

/// The per-process registry: non-owning list of sources, thread-safe
/// registration, read-on-demand (registration is free on the hot path).
/// Sources must outlive the registry or unregister first.
class MetricsRegistry {
 public:
  void Register(const MetricsSource* source);
  void Unregister(const MetricsSource* source);
  size_t num_sources() const;

  /// Every registered source, read in registration order.
  MetricsRead Read() const;
  std::string RenderPrometheus() const { return Read().RenderPrometheus(); }
  std::string RenderJson() const { return Read().RenderJson(); }

 private:
  mutable std::mutex mu_;
  std::vector<const MetricsSource*> sources_;
};

}  // namespace obs
}  // namespace tsb

#endif  // TSB_OBS_REGISTRY_H_
