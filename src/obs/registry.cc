#include "obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

namespace tsb {
namespace obs {

namespace {

enum class SampleType { kCounter, kGauge, kHistogram };

struct Sample {
  std::string name;
  std::string help;
  SampleType type = SampleType::kCounter;
  MetricsSink::Labels labels;
  double value = 0.0;
  HistogramValue histogram;
};

/// Collects every source's samples into a flat list, preserving emission
/// order within a source.
class VectorSink : public MetricsSink {
 public:
  void Counter(std::string_view name, std::string_view help,
               const Labels& labels, double value) override {
    Push(name, help, SampleType::kCounter, labels).value = value;
  }
  void Gauge(std::string_view name, std::string_view help,
             const Labels& labels, double value) override {
    Push(name, help, SampleType::kGauge, labels).value = value;
  }
  void Histogram(std::string_view name, std::string_view help,
                 const Labels& labels, const HistogramValue& value) override {
    Push(name, help, SampleType::kHistogram, labels).histogram = value;
  }

  std::vector<Sample> samples;

 private:
  Sample& Push(std::string_view name, std::string_view help, SampleType type,
               const Labels& labels) {
    Sample sample;
    sample.name = std::string(name);
    sample.help = std::string(help);
    sample.type = type;
    sample.labels = labels;
    samples.push_back(std::move(sample));
    return samples.back();
  }
};

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string RenderLabels(const MetricsSink::Labels& labels,
                         const char* extra_key = nullptr,
                         const char* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return std::string();
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ",";
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += "\"";
  }
  out += "}";
  return out;
}

const char* TypeName(SampleType type) {
  switch (type) {
    case SampleType::kCounter: return "counter";
    case SampleType::kGauge: return "gauge";
    case SampleType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Prometheus `le` label values: finite bounds in %.9g, +Inf spelled the
/// way the exposition format expects.
std::string FormatBound(double bound) {
  if (bound == std::numeric_limits<double>::infinity()) return "+Inf";
  return FormatNumber(bound);
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void MetricsRegistry::Register(const MetricsSource* source) {
  if (source == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(sources_.begin(), sources_.end(), source) == sources_.end()) {
    sources_.push_back(source);
  }
}

void MetricsRegistry::Unregister(const MetricsSource* source) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.erase(std::remove(sources_.begin(), sources_.end(), source),
                 sources_.end());
}

size_t MetricsRegistry::num_sources() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_.size();
}

std::string MetricsRegistry::RenderPrometheus() const {
  VectorSink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricsSource* source : sources_) source->Collect(&sink);
  }
  // Group samples by family name so HELP/TYPE headers appear exactly once
  // per family, in first-seen order.
  std::vector<std::string> family_order;
  std::map<std::string, std::vector<const Sample*>> families;
  for (const Sample& sample : sink.samples) {
    auto [it, inserted] = families.emplace(sample.name,
                                           std::vector<const Sample*>());
    if (inserted) family_order.push_back(sample.name);
    it->second.push_back(&sample);
  }
  std::string out;
  for (const std::string& name : family_order) {
    const auto& group = families[name];
    const Sample* head = group.front();
    out += "# HELP " + name + " " + head->help + "\n";
    out += "# TYPE " + name + " " + TypeName(head->type) + "\n";
    for (const Sample* sample : group) {
      if (sample->type == SampleType::kHistogram) {
        const HistogramValue& h = sample->histogram;
        for (const auto& [bound, cumulative] : h.buckets) {
          out += name + "_bucket" +
                 RenderLabels(sample->labels, "le",
                              FormatBound(bound).c_str()) +
                 " " + FormatNumber(static_cast<double>(cumulative)) + "\n";
        }
        out += name + "_count" + RenderLabels(sample->labels) + " " +
               FormatNumber(static_cast<double>(h.count)) + "\n";
        out += name + "_sum" + RenderLabels(sample->labels) + " " +
               FormatNumber(h.sum) + "\n";
      } else {
        out += name + RenderLabels(sample->labels) + " " +
               FormatNumber(sample->value) + "\n";
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  VectorSink sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricsSource* source : sources_) source->Collect(&sink);
  }
  std::string out = "[";
  bool first_sample = true;
  for (const Sample& sample : sink.samples) {
    if (!first_sample) out += ",";
    first_sample = false;
    out += "\n  {\"name\":\"" + EscapeJson(sample.name) + "\",\"type\":\"";
    out += TypeName(sample.type);
    out += "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [key, value] : sample.labels) {
      if (!first_label) out += ",";
      first_label = false;
      out += "\"" + EscapeJson(key) + "\":\"" + EscapeJson(value) + "\"";
    }
    out += "},";
    if (sample.type == SampleType::kHistogram) {
      const HistogramValue& h = sample.histogram;
      out += "\"value\":{\"count\":" +
             FormatNumber(static_cast<double>(h.count)) +
             ",\"sum\":" + FormatNumber(h.sum) + ",\"buckets\":[";
      bool first_bucket = true;
      for (const auto& [bound, cumulative] : h.buckets) {
        if (!first_bucket) out += ",";
        first_bucket = false;
        out += "[\"" + FormatBound(bound) + "\"," +
               FormatNumber(static_cast<double>(cumulative)) + "]";
      }
      out += "]}";
    } else {
      out += "\"value\":" + FormatNumber(sample.value);
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace obs
}  // namespace tsb
