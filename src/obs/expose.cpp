#include "obs/expose.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "obs/health.hpp"

namespace distgnn::obs {

namespace {

std::string fmt_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_le(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string render_labels(const Labels& labels, const std::string& extra_key = "",
                          const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k + "=\"" + escape_label(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out += extra_key + "=\"" + escape_label(extra_value) + "\"";
  }
  out.push_back('}');
  return out;
}

std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  // One # TYPE line per metric name, series grouped under it: walk names in
  // first-appearance order, then every point sharing the name.
  std::vector<const std::string*> names;
  for (const MetricPoint& p : snapshot.points) {
    const bool seen = std::any_of(names.begin(), names.end(),
                                  [&](const std::string* n) { return *n == p.name; });
    if (!seen) names.push_back(&p.name);
  }
  for (const std::string* name : names) {
    bool typed = false;
    for (const MetricPoint& p : snapshot.points) {
      if (p.name != *name) continue;
      if (!typed) {
        out << "# TYPE " << *name << (p.is_histogram ? " histogram" : " counter") << "\n";
        typed = true;
      }
      if (!p.is_histogram) {
        out << p.name << render_labels(p.labels) << " " << fmt_number(p.value) << "\n";
        continue;
      }
      // Cumulative buckets; empty buckets are elided (cumulative counts make
      // them recoverable) but +Inf is always present.
      std::uint64_t cumulative = 0;
      for (int k = 0; k < kNumBuckets - 1; ++k) {
        const std::uint64_t in_bucket = p.histogram.buckets[static_cast<std::size_t>(k)];
        if (in_bucket == 0) continue;
        cumulative += in_bucket;
        out << p.name << "_bucket"
            << render_labels(p.labels, "le", fmt_le(bucket_upper_seconds(k))) << " "
            << cumulative << "\n";
      }
      out << p.name << "_bucket" << render_labels(p.labels, "le", "+Inf") << " "
          << p.histogram.count << "\n";
      out << p.name << "_sum" << render_labels(p.labels) << " "
          << fmt_number(p.histogram.sum_seconds) << "\n";
      out << p.name << "_count" << render_labels(p.labels) << " " << p.histogram.count << "\n";
    }
  }
  return out.str();
}

std::string render_chrome_trace(std::span<const Trace> traces) {
  // Timestamps are offset to the earliest trace so Perfetto's viewport
  // starts at ~0 rather than hours of steady-clock uptime.
  double t0 = 0;
  bool have_t0 = false;
  for (const Trace& trace : traces) {
    if (!have_t0 || trace.begin_seconds < t0) {
      t0 = trace.begin_seconds;
      have_t0 = true;
    }
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::vector<std::int32_t> tenants_seen;
  const auto emit = [&](const std::string& event) {
    if (!first) out << ",";
    first = false;
    out << "\n  " << event;
  };
  for (const Trace& trace : traces) {
    const bool stream_track = trace.tenant == kStreamTrack;
    if (std::find(tenants_seen.begin(), tenants_seen.end(), trace.tenant) ==
        tenants_seen.end()) {
      tenants_seen.push_back(trace.tenant);
      std::ostringstream meta;
      meta << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << trace.tenant
           << ",\"args\":{\"name\":\"";
      if (stream_track)
        meta << "stream";
      else
        meta << "tenant " << trace.tenant;
      meta << "\"}}";
      emit(meta.str());
    }
    for (int s = 0; s < kNumStages; ++s) {
      const Span& span = trace.spans[static_cast<std::size_t>(s)];
      if (!span.valid()) continue;
      std::ostringstream event;
      char ts[64], dur[64];
      std::snprintf(ts, sizeof(ts), "%.3f", (span.begin_seconds - t0) * 1e6);
      std::snprintf(dur, sizeof(dur), "%.3f", span.duration_seconds() * 1e6);
      event << "{\"name\":\"" << stage_name(static_cast<Stage>(s)) << "\",\"cat\":\""
            << (stream_track ? "stream" : "serve") << "\",\"ph\":\"X\",\"ts\":" << ts
            << ",\"dur\":" << dur << ",\"pid\":" << trace.tenant
            << ",\"tid\":" << trace.request_id << ",\"args\":{\""
            << (stream_track ? "epoch" : "vertex")
            << "\":" << (stream_track ? static_cast<std::int64_t>(trace.request_id)
                                      : trace.vertex)
            << "}}";
      emit(event.str());
    }
  }
  out << "\n]}\n";
  return out.str();
}

namespace {

/// Splits `body` ( k="v",k2="v2" ) into labels, unescaping values. Only the
/// escapes the exposition format defines (\\, \", \n) are accepted — an
/// unknown or dangling escape is a malformed line, not content.
Labels parse_labels(const std::string& body) {
  Labels labels;
  std::size_t i = 0;
  while (i < body.size()) {
    const std::size_t eq = body.find('=', i);
    if (eq == std::string::npos || eq + 1 >= body.size() || body[eq + 1] != '"')
      throw std::runtime_error("parse_prometheus: malformed labels: " + body);
    const std::string key = body.substr(i, eq - i);
    if (key.empty()) throw std::runtime_error("parse_prometheus: empty label name: " + body);
    std::string value;
    std::size_t j = eq + 2;
    while (j < body.size() && body[j] != '"') {
      if (body[j] == '\\') {
        if (j + 1 >= body.size())
          throw std::runtime_error("parse_prometheus: dangling label escape: " + body);
        ++j;
        const char c = body[j];
        if (c == 'n')
          value.push_back('\n');
        else if (c == '\\' || c == '"')
          value.push_back(c);
        else
          throw std::runtime_error(std::string("parse_prometheus: bad label escape \\") + c +
                                   ": " + body);
      } else {
        value.push_back(body[j]);
      }
      ++j;
    }
    if (j >= body.size()) throw std::runtime_error("parse_prometheus: unterminated label value");
    labels.emplace_back(key, value);
    i = j + 1;
    if (i < body.size() && body[i] == ',') ++i;
  }
  return labels;
}

/// Parses the sample value after `value_at`, rejecting non-numeric content
/// and trailing junk ("12abc") instead of truncating like std::stod would.
double parse_value(const std::string& line, std::size_t value_at) {
  std::size_t i = value_at;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size()) throw std::runtime_error("parse_prometheus: missing value: " + line);
  const std::string token = line.substr(i);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  std::size_t parsed = static_cast<std::size_t>(end - token.c_str());
  if (parsed == 0)
    throw std::runtime_error("parse_prometheus: non-numeric value '" + token + "': " + line);
  while (parsed < token.size() && (token[parsed] == ' ' || token[parsed] == '\t')) ++parsed;
  if (parsed != token.size())
    throw std::runtime_error("parse_prometheus: trailing junk after value '" + token +
                             "': " + line);
  return value;
}

/// `# TYPE <name> <type>` and `# HELP <name> ...` must be well-formed; any
/// other comment is skipped. A truncated TYPE/HELP line is a broken scrape
/// (the renderer always emits complete ones), so it throws.
void validate_comment(const std::string& line) {
  std::istringstream tokens(line);
  std::string hash, kind, name;
  tokens >> hash >> kind;
  if (kind != "TYPE" && kind != "HELP") return;  // plain comment
  if (!(tokens >> name) || name.empty())
    throw std::runtime_error("parse_prometheus: truncated # " + kind + " line: " + line);
  if (kind == "TYPE") {
    std::string type;
    if (!(tokens >> type) || (type != "counter" && type != "gauge" && type != "histogram" &&
                              type != "summary" && type != "untyped"))
      throw std::runtime_error("parse_prometheus: bad # TYPE line: " + line);
  }
}

}  // namespace

MetricsSnapshot parse_prometheus(const std::string& text) {
  // Accumulate histogram series first (buckets arrive cumulatively and
  // possibly sparsely), then materialize into the snapshot.
  struct HistAcc {
    std::string name;
    Labels labels;
    std::vector<std::pair<double, std::uint64_t>> finite;  // (le, cumulative)
    std::uint64_t count = 0;
    double sum = 0;
  };
  std::vector<HistAcc> hists;
  const auto hist_for = [&](const std::string& name, const Labels& labels) -> HistAcc& {
    for (HistAcc& h : hists)
      if (h.name == name && h.labels == labels) return h;
    HistAcc h;
    h.name = name;
    h.labels = labels;
    hists.push_back(std::move(h));
    return hists.back();
  };

  MetricsSnapshot snapshot;
  std::istringstream in(text);
  std::string line;
  const auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                  suffix) == 0;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      validate_comment(line);
      continue;
    }
    std::string name;
    Labels labels;
    std::size_t value_at;
    const std::size_t brace = line.find('{');
    if (brace != std::string::npos) {
      name = line.substr(0, brace);
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos)
        throw std::runtime_error("parse_prometheus: unterminated labels: " + line);
      labels = parse_labels(line.substr(brace + 1, close - brace - 1));
      value_at = close + 1;
    } else {
      const std::size_t space = line.find(' ');
      if (space == std::string::npos)
        throw std::runtime_error("parse_prometheus: no value: " + line);
      name = line.substr(0, space);
      value_at = space;
    }
    const double value = parse_value(line, value_at);

    if (ends_with(name, "_bucket")) {
      const std::string base = name.substr(0, name.size() - 7);
      Labels rest;
      std::string le;
      for (const auto& [k, v] : labels) {
        if (k == "le")
          le = v;
        else
          rest.emplace_back(k, v);
      }
      if (le.empty()) throw std::runtime_error("parse_prometheus: bucket without le: " + line);
      HistAcc& h = hist_for(base, rest);
      if (le != "+Inf") h.finite.emplace_back(std::stod(le), static_cast<std::uint64_t>(value));
      continue;  // +Inf cumulative == _count; taken from there
    }
    if (ends_with(name, "_sum")) {
      hist_for(name.substr(0, name.size() - 4), labels).sum = value;
      continue;
    }
    if (ends_with(name, "_count")) {
      hist_for(name.substr(0, name.size() - 6), labels).count =
          static_cast<std::uint64_t>(value);
      continue;
    }
    snapshot.add_counter(name, labels, value);
  }

  for (HistAcc& h : hists) {
    std::sort(h.finite.begin(), h.finite.end());
    HistogramData data;
    std::uint64_t prev = 0;
    for (const auto& [le, cumulative] : h.finite) {
      const int k = static_cast<int>(std::lround(std::log2(le * 1e6)));
      if (k < 0 || k >= kNumBuckets)
        throw std::runtime_error("parse_prometheus: le off the bucket grid: " + h.name);
      data.buckets[static_cast<std::size_t>(k)] = cumulative - prev;
      prev = cumulative;
    }
    data.count = h.count;
    data.sum_seconds = h.sum;
    if (h.count > prev)  // overflow tail beyond the last finite bucket
      data.buckets[kNumBuckets - 1] += h.count - prev;
    snapshot.add_histogram(h.name, h.labels, data);
  }
  return snapshot;
}

namespace {

void append_health_event(std::ostringstream& out, const HealthEvent& event) {
  out << "{\"rule\":\"" << health_rule_name(event.rule) << "\",\"severity\":\""
      << severity_name(event.severity) << "\",\"firing\":" << (event.firing ? "true" : "false")
      << ",\"subject\":\"" << json_escape(event.subject) << "\",\"tenant\":" << event.tenant
      << ",\"t\":" << fmt_number(event.t) << ",\"value\":" << fmt_number(event.value)
      << ",\"threshold\":" << fmt_number(event.threshold) << ",\"detail\":\""
      << json_escape(event.detail) << "\"}";
}

}  // namespace

std::string render_health_json(const HealthMonitor& monitor) {
  std::ostringstream out;
  out << "{\"ticks\":" << monitor.ticks() << ",\"series\":" << monitor.num_series()
      << ",\"series_allocations\":" << monitor.series_allocations() << ",\"active\":[";
  bool first = true;
  for (const HealthEvent& event : monitor.active()) {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
    append_health_event(out, event);
  }
  out << "\n],\"history\":[";
  first = true;
  for (const HealthEvent& event : monitor.history()) {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
    append_health_event(out, event);
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace distgnn::obs
