#include "obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "common/logging.h"

namespace tsb {
namespace obs {

namespace {

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

std::string RenderLabels(const MetricSample& sample,
                         const char* extra_key = nullptr,
                         const char* extra_value = nullptr) {
  if (sample.labels.empty() && extra_key == nullptr) return std::string();
  std::string out = "{";
  for (size_t i = 0; i < sample.labels.size(); ++i) {
    if (i > 0) out += ",";
    out += std::string(sample.family->label_keys[i]) + "=\"" +
           EscapeLabelValue(sample.labels[i]) + "\"";
  }
  if (extra_key != nullptr) {
    if (!sample.labels.empty()) out += ",";
    out += std::string(extra_key) + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

const char* TypeName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// A counter or gauge sample's exported number.
double ExportValue(const MetricSample& sample) {
  if (sample.family->kind == MetricKind::kGauge) return sample.value;
  return static_cast<double>(sample.count) / sample.family->unit;
}

bool LabelsMatch(const MetricSample& sample,
                 MetricsRead::LabelValues label_values) {
  return std::equal(sample.labels.begin(), sample.labels.end(),
                    label_values.begin(), label_values.end());
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

MetricSample& MetricsRead::Add(const MetricFamily& family,
                               const std::vector<std::string>& label_values) {
  TSB_CHECK_EQ(label_values.size(), family.label_keys.size());
  MetricSample& sample = samples_.emplace_back();
  sample.family = &family;
  sample.labels = label_values;
  return sample;
}

const MetricSample* MetricsRead::Find(std::string_view name,
                                      LabelValues label_values) const {
  for (const MetricSample& sample : samples_) {
    if (sample.family->name == name && LabelsMatch(sample, label_values)) {
      return &sample;
    }
  }
  return nullptr;
}

std::vector<const MetricSample*> MetricsRead::All(
    std::string_view name) const {
  std::vector<const MetricSample*> out;
  for (const MetricSample& sample : samples_) {
    if (sample.family->name == name) out.push_back(&sample);
  }
  return out;
}

uint64_t MetricsRead::Count(std::string_view name,
                            LabelValues label_values) const {
  const MetricSample* sample = Find(name, label_values);
  return sample == nullptr ? 0 : sample->count;
}

uint64_t MetricsRead::Sum(std::string_view name) const {
  uint64_t total = 0;
  for (const MetricSample* sample : All(name)) total += sample->count;
  return total;
}

std::string MetricsRead::RenderPrometheus() const {
  // Group samples by family name so HELP/TYPE headers appear exactly once
  // per family, in first-seen order.
  std::vector<std::string_view> family_order;
  std::map<std::string_view, std::vector<const MetricSample*>> families;
  for (const MetricSample& sample : samples_) {
    auto [it, inserted] = families.emplace(
        sample.family->name, std::vector<const MetricSample*>());
    if (inserted) family_order.push_back(sample.family->name);
    it->second.push_back(&sample);
  }
  std::string out;
  for (std::string_view family_name : family_order) {
    const auto& group = families[family_name];
    const MetricFamily& family = *group.front()->family;
    const std::string name(family_name);
    out += "# HELP " + name + " " + std::string(family.help) + "\n";
    out += "# TYPE " + name + " " + TypeName(family.kind) + "\n";
    for (const MetricSample* sample : group) {
      if (family.kind == MetricKind::kHistogram) {
        const LatencyHistogram& h = sample->histogram;
        for (const auto& [bound, cumulative] : h.CumulativeBuckets()) {
          out += name + "_bucket" +
                 RenderLabels(*sample, "le",
                              FormatBound(bound).c_str()) +
                 " " + FormatNumber(static_cast<double>(cumulative)) + "\n";
        }
        out += name + "_count" + RenderLabels(*sample) + " " +
               FormatNumber(static_cast<double>(h.count())) + "\n";
        out += name + "_sum" + RenderLabels(*sample) + " " +
               FormatNumber(h.sum()) + "\n";
      } else {
        out += name + RenderLabels(*sample) + " " +
               FormatNumber(ExportValue(*sample)) + "\n";
      }
    }
  }
  return out;
}

std::string MetricsRead::RenderJson() const {
  std::string out = "[";
  bool first_sample = true;
  for (const MetricSample& sample : samples_) {
    const MetricFamily& family = *sample.family;
    if (!first_sample) out += ",";
    first_sample = false;
    out += "\n  {\"name\":\"" + EscapeJson(std::string(family.name)) +
           "\",\"type\":\"";
    out += TypeName(family.kind);
    out += "\",\"labels\":{";
    for (size_t i = 0; i < sample.labels.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + EscapeJson(std::string(family.label_keys[i])) +
             "\":\"" + EscapeJson(sample.labels[i]) + "\"";
    }
    out += "},";
    if (family.kind == MetricKind::kHistogram) {
      const LatencyHistogram& h = sample.histogram;
      out += "\"value\":{\"count\":" +
             FormatNumber(static_cast<double>(h.count())) +
             ",\"sum\":" + FormatNumber(h.sum()) + ",\"buckets\":[";
      bool first_bucket = true;
      for (const auto& [bound, cumulative] : h.CumulativeBuckets()) {
        if (!first_bucket) out += ",";
        first_bucket = false;
        out += "[\"" + FormatBound(bound) + "\"," +
               FormatNumber(static_cast<double>(cumulative)) + "]";
      }
      out += "]}";
    } else {
      out += "\"value\":" + FormatNumber(ExportValue(sample));
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

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

MetricsRead MetricsRegistry::Read() const {
  MetricsRead read;
  std::lock_guard<std::mutex> lock(mu_);
  for (const MetricsSource* source : sources_) source->Collect(&read);
  return read;
}

}  // namespace obs
}  // namespace tsb
