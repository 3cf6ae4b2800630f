// Host-side profiling: wall-clock spans, memory sampling, throughput.
//
// The rest of src/obs observes *simulated* time — byte-deterministic by
// design. This file is the other half: it characterises the simulator
// process itself (how long the host spent, how much RSS it held, how
// many edges/blocks/cells per wall-second it pushed), which is what the
// bench/history perf trajectory and the multi-core --jobs speedup are
// measured against. Everything here is explicitly wall-clock and
// therefore non-deterministic; it never touches stdout or the
// deterministic sections of --json/--trace output.
//
// The profiler is process-global and off by default. When off, an
// instrumented site costs one relaxed atomic load (the same contract as
// obs::enabled()). When on (--host-profile):
//
//   * HostSpan RAII spans record wall-clock durations into
//     host.span.<name> registry histograms (microseconds) and, when a
//     Trace is attached, as complete events on a dedicated wall-clock
//     process track (pid kTracePid) parallel to the simulated-time pids;
//   * a sampler thread reads /proc/self/status periodically into
//     host.mem.rss_kb / host.mem.peak_rss_kb gauges and a "host rss"
//     counter track in the trace;
//   * count() accumulates per-stage item counts (edges, blocks, cells)
//     that stop() folds into host.rate.<what>_per_s gauges.
//
// Registry keys, all under the host.* prefix (excluded from the
// deterministic sim.* rollup in bench reports by construction):
//
//   host.wall_us                 total profiled wall time (gauge, stop())
//   host.span.<name>             span durations in us (histogram)
//   host.count.<what>            items seen per stage (counter)
//   host.rate.<what>_per_s       items / profiled second (gauge, stop())
//   host.mem.rss_kb              latest sampled VmRSS (gauge)
//   host.mem.peak_rss_kb         latest sampled VmHWM (gauge)
//   host.mem.samples             sampler iterations (counter)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

namespace hyve::obs {

class Trace;

// Resident and peak-resident memory of this process in KiB, read from
// /proc/self/status (VmRSS / VmHWM); zeros on platforms without procfs.
struct HostMemSample {
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
};
HostMemSample read_host_memory();

// Identity of the measuring host, for attributing perf-history records:
// a wall-clock number is only comparable against the same machine.
struct HostFingerprint {
  std::string hostname;   // gethostname(), "unknown" on failure
  std::string cpu_model;  // /proc/cpuinfo "model name", "" when unreadable
  unsigned cpus = 0;      // std::thread::hardware_concurrency()
};
HostFingerprint host_fingerprint();

class HostProfiler {
 public:
  // The wall-clock process track in Chrome traces: far above the
  // per-cell simulated-time pids (cell index + 1), so host spans render
  // as a parallel process named "host (wall clock)".
  static constexpr std::uint32_t kTracePid = 1000000;

  struct Options {
    bool sample_memory = true;
    std::chrono::milliseconds sample_period = std::chrono::milliseconds(50);
  };

  // Starts collection (idempotent: a second start while running is
  // ignored). `trace` may be null — registry metrics still collect.
  // Spans and samples only land in obs::registry() while obs::enabled(),
  // so callers enable the registry alongside (--host-profile does).
  void start(Trace* trace, const Options& options);
  void start(Trace* trace) { start(trace, Options()); }
  void start() { start(nullptr); }

  // Stops the sampler thread, records host.wall_us and the
  // host.rate.*_per_s gauges. Safe to call when not running.
  void stop();

  // Writes the registry's host.* lines (sorted key=value, the --metrics
  // format) to `os`: the summary --host-profile prints by itself when
  // no full --metrics dump carries it.
  static void print_summary(std::ostream& os);

  // Acquire pairs with start()'s release store: a thread that observes
  // the profiler enabled also observes the epoch it was started with.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Wall-clock nanoseconds since start(); 0 while disabled.
  double now_ns() const;

  // Accumulates `n` items of a named stage throughput (e.g. "edges",
  // "blocks", "cells"); dropped while disabled.
  void count(const char* what, std::uint64_t n);

  // Records one finished span: a host.span.<name> histogram sample and,
  // when tracing, a complete event on (kTracePid, calling thread's tid).
  // HostSpan is the intended caller.
  void record_span(const char* name, double start_ns, double end_ns);

  ~HostProfiler();

 private:
  void sampler_loop(std::chrono::milliseconds period);
  void sample_memory_once();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  // Written only across enabled transitions, read by spans while on;
  // atomic so a span racing a stop() reads null rather than torn bits.
  std::atomic<Trace*> trace_{nullptr};

  std::mutex mu_;  // serialises start/stop transitions
  std::thread sampler_;
  std::mutex sampler_mu_;  // guards sampler_stop_ under the cv
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
};

// The process-wide profiler every instrumented layer reports into.
HostProfiler& host_profiler();

// RAII wall-clock span over the enclosing scope. `name` must outlive the
// span (string literals at every call site). When the profiler is off
// this is one relaxed load at construction and nothing at destruction.
class HostSpan {
 public:
  explicit HostSpan(const char* name)
      : name_(host_profiler().enabled() ? name : nullptr),
        start_ns_(name_ != nullptr ? host_profiler().now_ns() : 0.0) {}

  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  ~HostSpan() {
    if (name_ == nullptr) return;
    HostProfiler& profiler = host_profiler();
    if (profiler.enabled())
      profiler.record_span(name_, start_ns_, profiler.now_ns());
  }

 private:
  const char* name_;  // null = profiler was off at construction
  double start_ns_;
};

}  // namespace hyve::obs
