#include "src/obs/metrics.hpp"

#include "src/obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace efd::obs {

namespace detail {

namespace {
bool env_enabled() {
  const char* env = std::getenv("EFD_OBS");
  return env == nullptr || std::string_view(env) != "0";
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};
thread_local Shard* t_shard = nullptr;

Shard& make_shard() { return MetricsRegistry::instance().shard(); }

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Shard& MetricsRegistry::shard() { return pool_.lease(detail::t_shard); }

std::size_t MetricsRegistry::shard_count() const {
  const std::scoped_lock lock(mutex_);
  return pool_.all().size();
}

namespace {

/// Shared registration: the names vector owns the string; the index map
/// keys view into it (stable — vectors of std::string never relocate the
/// character data on push_back for existing entries... but the string
/// objects themselves move, so key views must point at heap buffers; keep
/// keys viewing the stored std::string's data, which is stable under vector
/// growth only for non-SSO strings. To be safe regardless of SSO, the map
/// is rebuilt from the names vector on every insertion.)
int register_name(std::string_view name, std::vector<std::string>& names,
                  std::unordered_map<std::string_view, int>& index, int capacity,
                  const char* kind) {
  const auto it = index.find(name);
  if (it != index.end()) return it->second;
  if (static_cast<int>(names.size()) >= capacity) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "efd::obs: %s capacity (%d) exhausted; '%.*s' dropped\n",
                   kind, capacity, static_cast<int>(name.size()), name.data());
    }
    return -1;
  }
  names.emplace_back(name);
  index.clear();
  for (std::size_t i = 0; i < names.size(); ++i) {
    index.emplace(names[i], static_cast<int>(i));
  }
  return static_cast<int>(names.size()) - 1;
}

}  // namespace

CounterId MetricsRegistry::counter_id(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return CounterId{register_name(name, counter_names_, counter_index_,
                                 kMaxCounters, "counter")};
}

GaugeId MetricsRegistry::gauge_id(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return GaugeId{
      register_name(name, gauge_names_, gauge_index_, kMaxGauges, "gauge")};
}

HistogramId MetricsRegistry::histogram_id(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  return HistogramId{register_name(name, histogram_names_, histogram_index_,
                                   kMaxHistograms, "histogram")};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& s : pool_.all()) {
      total += s->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(counter_names_[i], total);
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    double total = 0.0;
    for (const auto& s : pool_.all()) {
      total += s->gauges[i].load(std::memory_order_relaxed);
    }
    snap.gauges.emplace_back(gauge_names_[i], total);
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramData h;
    for (const auto& s : pool_.all()) {
      h.count += s->histo_count[i].load(std::memory_order_relaxed);
      h.sum += s->histo_sum[i].load(std::memory_order_relaxed);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[static_cast<std::size_t>(b)] +=
            s->histo_buckets[i][static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
    }
    snap.histograms.emplace_back(histogram_names_[i], h);
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  for (const auto& s : pool_.all()) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : s->gauges) g.store(0.0, std::memory_order_relaxed);
    for (auto& c : s->histo_count) c.store(0, std::memory_order_relaxed);
    for (auto& v : s->histo_sum) v.store(0.0, std::memory_order_relaxed);
    for (auto& row : s->histo_buckets) {
      for (auto& b : row) b.store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const HistogramData* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json(int indent,
                                     std::string_view profile_json) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  // Every piece is appended with +=: GCC 12 reports `"literal" +
  // std::string` as a -Wrestrict overlap (a false positive, GCC PR 105651).
  const auto line = [&](std::string_view text) {
    out += pad;
    out += text;
  };
  // Close a section: right after an empty "{", else on a line of its own.
  const auto close = [&](bool empty, std::string_view brace) {
    if (!empty) {
      out += '\n';
      line("  ");
    }
    out += brace;
  };
  const auto key = [&](std::size_t i, std::string_view name) {
    out += i == 0 ? "\n" : ",\n";
    line("    \"");
    append_escaped(out, name);
    out += "\": ";
  };
  line("  \"counters\": {");
  for (std::size_t i = 0; i < counters.size(); ++i) {
    key(i, counters[i].first);
    out += std::to_string(counters[i].second);
  }
  close(counters.empty(), "},\n");
  line("  \"gauges\": {");
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    key(i, gauges[i].first);
    append_double(out, gauges[i].second);
  }
  close(gauges.empty(), "},\n");
  line("  \"histograms\": {");
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& [name, h] = histograms[i];
    key(i, name);
    out += "{\"count\": ";
    out += std::to_string(h.count);
    out += ", \"sum\": ";
    append_double(out, h.sum);
    // Only non-empty buckets, as {"le_exp": count}: key i means v < 2^i.
    out += ", \"buckets\": {";
    bool first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += std::to_string(b);
      out += "\": ";
      out += std::to_string(n);
    }
    out += "}}";
  }
  if (profile_json.empty()) {
    close(histograms.empty(), "}\n");
  } else {
    close(histograms.empty(), "},\n");
    line("  \"profile\": ");
    out += profile_json;
    out += "\n";
  }
  line("}");
  return out;
}

std::string snapshot_json(int indent) {
#if EFD_OBS_ENABLED
  // Embedding is conditional on the compile-time tier, not the runtime
  // switch: an EFD_OBS_ENABLED=0 build must not pull ProfileRegistry out of
  // the archive (the CI compile-out leg asserts no profiler symbols), while
  // a runtime-disabled profiler still reports {"enabled": false, ...} so
  // consumers can tell "off" from "absent".
  const std::string profile =
      ProfileRegistry::instance().snapshot().to_json(indent + 2);
  return MetricsRegistry::instance().snapshot().to_json(indent, profile);
#else
  return MetricsRegistry::instance().snapshot().to_json(indent);
#endif
}

}  // namespace efd::obs
