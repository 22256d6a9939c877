// efd_perfbench — the repository benchmark harness.
//
//   efd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//   efd_perfbench --self-test [--seed <n>] [--workload <name>]
//
// Repeats one workload's closed batch job (set-up, one simulation to
// completion, output checks) for about --seconds of host time and prints,
// as its last stdout line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Counts are written as
// integers and digests as full 64-bit hex, never through a %g format.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profile.hpp"
#include "src/sim/sharded.hpp"

namespace perfbench {
namespace {

using efd::obs::MetricsRegistry;
using efd::obs::ProfileNode;
using efd::obs::ProfileRegistry;

// --- exact JSON numbers ------------------------------------------------------

std::string json_uint(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

/// Shortest-exact rendering: %.17g round-trips every finite double.
std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- metric output -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string value;  ///< already-rendered JSON number
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(const std::string& name, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(name);
    }
  }
};

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + json_uint(out.attempted);
  line += ", \"failed\": " + json_uint(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + m.value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// --- one job -----------------------------------------------------------------

struct JobRecord {
  JobResult r;
  double wall_s = 0.0;
  /// Host slowdown over the job: mean probe time (before, during and after),
  /// over kProbeRefS. Host times divided by it are reference-host times.
  double host_scale = 1.0;
  bool traced = false;
  /// Program profiler: self seconds by scope name, and total seconds of the
  /// grid's build scopes (traced jobs only).
  std::map<std::string, double> prof_self_s;
  double prof_grid_build_s = 0.0;
  double span_cover_s = 0.0;  ///< top-level harness spans of this job
};

void fold_profile(const ProfileNode& n, JobRecord& rec) {
  rec.prof_self_s[n.name] += static_cast<double>(n.self_ns) * 1e-9;
  if (n.name == "grid.profiles" || n.name == "grid.distances") {
    rec.prof_grid_build_s += static_cast<double>(n.total_ns) * 1e-9;
    return;  // build scopes do not nest in each other
  }
  for (const ProfileNode& c : n.children) fold_profile(c, rec);
}

/// Counters whose value depends on thread timing, not on the inputs.
bool timing_dependent(const std::string& counter) {
  return counter.rfind("sim.shard.", 0) == 0;
}

JobRecord run_job(const Job& job, int threads, int index, bool traced,
                  SpanRecorder& spans) {
  const double probe_before = probe_seconds(threads);
  efd::obs::set_prof_enabled(traced);
  MetricsRegistry::instance().reset();
  if (traced) ProfileRegistry::instance().reset();
  const std::size_t first_span = spans.all().size();
  spans.start_run(index, traced);

  JobRecord rec;
  rec.traced = traced;
  const auto t0 = Clock::now();
  rec.r = job(spans);
  rec.wall_s = seconds_since(t0);
  efd::obs::set_prof_enabled(false);
  std::vector<double> probes = rec.r.probes;
  probes.push_back(probe_before);
  probes.push_back(probe_seconds(threads));
  double sum = 0.0;
  for (const double p : probes) sum += p;
  rec.host_scale = sum / static_cast<double>(probes.size()) / kProbeRefS;

  // Registry counters first, then the workload's own API accounting, which
  // wins where both name the same quantity.
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, v] : MetricsRegistry::instance().snapshot().counters) {
    counts[name] = v;
  }
  for (const auto& [name, v] : rec.r.counts) counts[name] = v;
  rec.r.counts = std::move(counts);

  if (traced) {
    fold_profile(ProfileRegistry::instance().snapshot().root, rec);
    const auto& all = spans.all();
    for (std::size_t i = first_span; i < all.size(); ++i) {
      if (all[i].parent < 0) {
        rec.span_cover_s += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
      }
    }
  }
  return rec;
}

std::uint64_t count_of(const JobResult& r, const std::string& name) {
  const auto it = r.counts.find(name);
  return it == r.counts.end() ? 0 : it->second;
}

double time_of(const JobResult& r, const std::string& name) {
  const auto it = r.times.find(name);
  return it == r.times.end() ? 0.0 : it->second;
}

/// True when every input-determined count of `a` and `b` agrees; prints the
/// ones that differ.
bool same_counts(const JobResult& a, const JobResult& b) {
  std::set<std::string> names;
  for (const auto& [n, v] : a.counts) names.insert(n);
  for (const auto& [n, v] : b.counts) names.insert(n);
  bool same = true;
  for (const std::string& n : names) {
    if (!timing_dependent(n) && count_of(a, n) != count_of(b, n)) {
      std::printf("count %s differs: %" PRIu64 " vs %" PRIu64 "\n", n.c_str(),
                  count_of(a, n), count_of(b, n));
      same = false;
    }
  }
  return same;
}

/// Checks that hold per job and across the jobs of one process.
void check_jobs(const std::vector<JobRecord>& jobs, Outcome& out) {
  for (const JobRecord& j : jobs) {
    for (const auto& [name, ok] : j.r.checks) out.check(name, ok);
    out.check("net.delivered_le_offered",
              count_of(j.r, "net.delivered") <= count_of(j.r, "net.offered"));
  }
  const JobRecord& ref = jobs.front();
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    out.check(j.traced ? "determinism.traced_digest_eq_untraced"
                       : "determinism.digest_repeats",
              j.r.digest == ref.r.digest);
    out.check("determinism.counts_repeat", same_counts(ref.r, j.r));
  }
}

// --- metric assembly ---------------------------------------------------------

std::vector<Metric> end_to_end(const std::vector<JobRecord>& jobs) {
  std::vector<double> setup;
  std::vector<double> speed;
  std::vector<double> cpu;
  for (const JobRecord& j : jobs) {
    setup.push_back(j.r.setup_s / j.host_scale);
    speed.push_back(ratio(j.r.sim_s, j.r.timed_s) * j.host_scale);
    cpu.push_back(ratio(j.r.cpu_s, j.r.sim_s) / j.host_scale);
  }
  return {
      {"setup_s", json_double(median(setup)), "s"},
      {"sim_speed", json_double(median(speed)), "sim_s/ref_s"},
      {"cpu_s_per_sim_s", json_double(median(cpu)), "ref_s/sim_s"},
      {"peak_rss_mb", json_double(peak_rss_mb()), "MiB"},
  };
}

std::vector<Metric> per_layer(const std::vector<JobRecord>& jobs, const Outcome& out) {
  std::vector<const JobRecord*> plain;
  std::vector<const JobRecord*> traced;
  for (const JobRecord& j : jobs) (j.traced ? traced : plain).push_back(&j);
  const JobResult& ref = plain.front()->r;

  // Host-time layer values come from the untraced jobs; profiler self
  // times from the traced ones.
  auto med_time = [&](const std::string& name) {
    std::vector<double> v;
    for (const JobRecord* j : plain) v.push_back(time_of(j->r, name));
    return median(v);
  };
  auto pooled = [&](const std::string& name, double q) {
    std::vector<double> v;
    for (const JobRecord* j : plain) {
      const auto it = j->r.samples.find(name);
      if (it != j->r.samples.end()) {
        v.insert(v.end(), it->second.begin(), it->second.end());
      }
    }
    return quantile(v, q);
  };
  auto med_self = [&](const std::string& scope) {
    std::vector<double> v;
    for (const JobRecord* j : traced) {
      const auto it = j->prof_self_s.find(scope);
      v.push_back(it == j->prof_self_s.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  auto med_wall = [](const std::vector<const JobRecord*>& js) {
    std::vector<double> v;
    for (const JobRecord* j : js) v.push_back(j->wall_s / j->host_scale);
    return median(v);
  };
  auto num = [&](const std::string& name) {
    return static_cast<double>(count_of(ref, name));
  };

  std::vector<Metric> m;
  auto add_count = [&](const std::string& name, std::uint64_t v) {
    m.push_back({name, json_uint(v), "count"});
  };
  auto add_value = [&](const std::string& name, double v, const std::string& unit) {
    m.push_back({name, json_double(v), unit});
  };

  // sim: the event engine (Simulator slices on hybrid_saturated, sharded
  // run_until segments on campus_storm and nan_diversity).
  const std::uint64_t events = count_of(ref, "sim.events");
  add_count("sim.events", events);
  const double engine_s = med_time("sim.engine_s");
  add_value("sim.ns_per_event", events > 0 ? engine_s * 1e9 / num("sim.events") : 0.0,
            "ns");
  add_value("sim.slice_ms_p50", pooled("sim.slice_ms", 0.50), "ms");
  add_value("sim.slice_ms_p99", pooled("sim.slice_ms", 0.99), "ms");
  const double busy = med_time("sim.shard.busy_s");
  const double wait = med_time("sim.shard.wait_s");
  add_value("sim.shard.busy_s", busy, "s");
  add_value("sim.shard.wait_s", wait, "s");
  add_value("sim.shard.wait_share", ratio(wait, busy + wait), "ratio");
  std::vector<double> windows;
  std::vector<double> per_window;
  for (const JobRecord* j : plain) {
    const auto w = static_cast<double>(count_of(j->r, "sim.shard.windows"));
    windows.push_back(w);
    per_window.push_back(
        ratio(static_cast<double>(count_of(j->r, "sim.shard.boundary_delivered")), w));
  }
  add_value("sim.shard.windows", median(windows), "count");
  add_value("sim.shard.boundary_per_window", median(per_window), "count");
  add_value("sim.shard.imbalance", med_time("sim.shard.imbalance"), "ratio");
  add_value("sim.shard.run_until_overhead_ms",
            pooled("sim.shard.run_until_overhead_ms", 0.5), "ms");
  add_value("sim.checkpoint_ms", pooled("sim.checkpoint_ms", 0.5), "ms");

  // plc: estimator, channel caches, MAC.
  add_count("plc.est.retunes", count_of(ref, "plc.est.tonemap_updates"));
  add_count("plc.est.error_retunes", count_of(ref, "plc.est.error_retunes"));
  add_count("plc.est.sound_frames", count_of(ref, "plc.est.sound_frames"));
  add_value("plc.est.retune_step_us_p50", pooled("plc.est.retune_step_us", 0.50), "us");
  add_value("plc.est.retune_step_us_p99", pooled("plc.est.retune_step_us", 0.99), "us");
  add_value("plc.est.quiet_step_us_p50", pooled("plc.est.quiet_step_us", 0.50), "us");
  std::vector<double> share;
  for (const JobRecord* j : plain) {
    share.push_back(ratio(time_of(j->r, "plc.est.retune_s"), j->r.timed_s));
  }
  add_value("plc.est.retune_time_share", median(share), "ratio");
  add_value("plc.channel.snr_cache_hit_ratio",
       ratio(num("plc.channel.snr_cache_hits"),
             num("plc.channel.snr_cache_hits") + num("plc.channel.snr_cache_misses")),
       "ratio");
  add_value("plc.channel.pberr_memo_hit_ratio",
       ratio(num("plc.channel.pberr_memo_hits"),
             num("plc.channel.pberr_memo_hits") + num("plc.channel.pberr_memo_misses")),
       "ratio");
  add_count("plc.mac.frames_tx", count_of(ref, "plc.mac.frames_tx"));
  add_count("plc.mac.collisions", count_of(ref, "plc.mac.collisions"));
  add_value("plc.mac.pb_retx_ratio",
            ratio(num("plc.mac.pb_retx"), num("plc.mac.pbs_tx")), "ratio");

  // grid
  add_count("grid.atten.queries", count_of(ref, "grid.atten.queries"));
  add_count("grid.noise.queries", count_of(ref, "grid.noise.queries"));
  add_count("grid.epoch.recomputes", count_of(ref, "grid.epoch.recomputes"));
  std::vector<double> grid_build;
  for (const JobRecord* j : traced) {
    grid_build.push_back(j->r.times.count("grid.build_s") != 0
                             ? time_of(j->r, "grid.build_s")
                             : j->prof_grid_build_s);
  }
  add_value("grid.build_s", median(grid_build), "s");

  // wifi
  add_count("wifi.mac.frames_tx", count_of(ref, "wifi.mac.frames_tx"));
  add_value("wifi.mac.retry_ratio",
            ratio(num("wifi.mac.retries"), num("wifi.mac.frames_tx")), "ratio");

  // hybrid
  for (const char* name :
       {"hybrid.sched.decisions", "hybrid.reorder.delivered", "hybrid.reorder.timeouts",
        "hybrid.diversity.dup_packets", "hybrid.reorder.duplicate_drops",
        "nan.relay.forwards", "hybrid.failover.redirects"}) {
    add_count(name, count_of(ref, name));
  }

  // net, fault
  add_count("net.offered", count_of(ref, "net.offered"));
  add_count("net.delivered", count_of(ref, "net.delivered"));
  add_value("net.delivery_ratio", ratio(num("net.delivered"), num("net.offered")),
            "ratio");
  add_count("fault.events", count_of(ref, "fault.events"));

  // testbed set-up phases
  add_value("testbed.setup.build_s", med_time("testbed.setup.build_s"), "s");
  add_value("testbed.setup.pick_link_s", med_time("testbed.setup.pick_link_s"), "s");
  add_value("testbed.setup.warm_s", med_time("testbed.setup.warm_s"), "s");

  // Program profiler scopes (traced jobs).
  for (const char* scope : {"plc.tonemap_adapt", "plc.pberr", "plc.tonemap_recompute",
                            "hybrid.enqueue", "shard.run", "sim.run"}) {
    add_value(std::string(scope) + ".self_s", med_self(scope), "s");
  }

  // host: the probe behind the end-to-end scaling, and the unscaled speed.
  std::vector<double> probe_ms;
  std::vector<double> raw_speed;
  for (const JobRecord* j : plain) {
    probe_ms.push_back(j->host_scale * kProbeRefS * 1e3);
    raw_speed.push_back(ratio(j->r.sim_s, j->r.timed_s));
  }
  add_value("host.probe_ms", median(probe_ms), "ms");
  add_value("host.sim_speed_raw", median(raw_speed), "sim_s/s");

  // obs: tracing cost and span coverage; checks.
  add_value("obs.trace_overhead", med_wall(traced) / med_wall(plain) - 1.0, "ratio");
  std::vector<double> cover;
  for (const JobRecord* j : traced) cover.push_back(ratio(j->span_cover_s, j->wall_s));
  add_value("obs.span_coverage", median(cover), "ratio");
  add_value("fail_ratio",
            ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
            "ratio");
  return m;
}

void write_spans(const std::string& dir, const std::string& workload,
                 std::uint64_t seed, const SpanRecorder& spans) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + workload + "-" + json_uint(seed) + ".jsonl";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const auto& s : spans.all()) {
    f << "{\"run\": " << s.run << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << "}\n";
  }
  std::printf("spans: %zu written to %s\n", spans.all().size(), path.c_str());
}

// --- self-test ---------------------------------------------------------------

int self_test(const std::vector<const Workload*>& targets, std::uint64_t seed) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // Exact output: the two values a %.6g writer truncates.
  const std::uint64_t events = 9219285;
  const std::uint64_t digest = 0xd1b54a32d192ed03ULL;
  char lossy[32];
  std::snprintf(lossy, sizeof lossy, "%.6g", static_cast<double>(events));
  expect(std::strtoull(lossy, nullptr, 10) != events,
         "%.6g loses 9219285 (" + std::string(lossy) + ")");
  expect(std::strtoull(json_uint(events).c_str(), nullptr, 10) == events,
         "count 9219285 round-trips as " + json_uint(events));
  expect(std::strtod(json_double(9219285.0).c_str(), nullptr) == 9219285.0,
         "double 9219285 round-trips as " + json_double(9219285.0));
  expect(std::strtoull(hex64(digest).c_str(), nullptr, 16) == digest,
         "digest round-trips as " + hex64(digest));
  const double third = 1.0 / 3.0;
  expect(std::strtod(json_double(third).c_str(), nullptr) == third, "1/3 round-trips");

  // Seed reach: same seed -> identical outputs, other seed -> other digest.
  SpanRecorder spans;
  for (const Workload* w : targets) {
    const Job a = w->prepare(seed);
    const JobRecord a1 = run_job(a, w->threads, 0, false, spans);
    const JobRecord a2 = run_job(a, w->threads, 1, false, spans);
    const JobRecord b = run_job(w->prepare(seed + 1), w->threads, 2, false, spans);
    expect(a1.r.digest == a2.r.digest && same_counts(a1.r, a2.r),
           std::string(w->name) + ": seed " + json_uint(seed) + " repeats digest " +
               hex64(a1.r.digest) + " and counts");
    expect(b.r.digest != a1.r.digest,
           std::string(w->name) + ": seed " + json_uint(seed + 1) +
               " gives another digest " + hex64(b.r.digest));
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: efd_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n"
               "       efd_perfbench --self-test [--seed <n>] [--workload <name>]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  std::vector<const Workload*> targets;
  for (const Workload& w : workloads()) {
    if (workload.empty() || workload == w.name) targets.push_back(&w);
  }
  if (targets.empty() || (!self && workload.empty()) || !(seconds > 0.0)) {
    return usage();
  }
  efd::obs::set_prof_enabled(false);
  if (self) return self_test(targets, seed);

  const Workload& w = *targets.front();
  const int min_jobs = trace ? 4 : 3;
  Outcome out;
  std::vector<JobRecord> jobs;
  SpanRecorder spans;
  const auto start = Clock::now();
  try {
    const Job job = w.prepare(seed);
    for (int i = 0;; ++i) {
      const bool traced = trace && i % 2 == 1;
      jobs.push_back(run_job(job, w.threads, i, traced, spans));
      const JobRecord& j = jobs.back();
      std::printf(
          "job %d%s: wall %.4fs host x%.3f setup %.4fs timed %.4fs sim_speed %.6g "
          "cpu/sim %.6g digest %s\n",
          i, traced ? " (traced)" : "", j.wall_s, j.host_scale, j.r.setup_s,
          j.r.timed_s,
          ratio(j.r.sim_s, j.r.timed_s), ratio(j.r.cpu_s, j.r.sim_s),
          hex64(j.r.digest).c_str());
      // Start another job only if it is expected to end within --seconds.
      if (i + 1 >= min_jobs && seconds_since(start) + j.wall_s > seconds) break;
    }
    out.check("no_shard_stall", true);
  } catch (const efd::sim::ShardStallError& e) {
    std::printf("shard stall: %s\n", e.what());
    out.check("no_shard_stall", false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efd_perfbench: %s\n", e.what());
    return 1;
  }
  if (jobs.empty()) return 1;
  check_jobs(jobs, out);
  for (const std::string& f : out.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::printf("workload %s seed %" PRIu64 ": %zu jobs in %.3fs, digest %s\n", w.name,
              seed, jobs.size(), seconds_since(start),
              hex64(jobs.front().r.digest).c_str());
  if (trace) {
    if (!trace_dir.empty()) write_spans(trace_dir, w.name, seed, spans);
    print_result(out, per_layer(jobs, out));
  } else {
    print_result(out, end_to_end(jobs));
  }
  return 0;
}
