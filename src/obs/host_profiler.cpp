#include "obs/host_profiler.hpp"

#include <unistd.h>

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hyve::obs {

namespace {

// Stable small thread ids for the host trace tracks: tid 0 is the
// sampler/process track, spans from worker threads land on 1, 2, ...
// in first-use order.
std::uint32_t host_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1);
  return tid;
}

// Per-stage item totals for the rate gauges, keyed by the literal name
// handed to count(). Guarded by its own mutex: count() is called from
// worker threads while stop() reads.
struct StageCounts {
  std::mutex mu;
  std::map<std::string, std::uint64_t> items;
};

StageCounts& stage_counts() {
  static StageCounts counts;
  return counts;
}

}  // namespace

HostMemSample read_host_memory() {
  HostMemSample sample;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    const auto parse_kb = [&](const char* prefix) -> std::uint64_t {
      std::istringstream is(line.substr(std::string(prefix).size()));
      std::uint64_t kb = 0;
      is >> kb;
      return kb;
    };
    if (line.rfind("VmRSS:", 0) == 0) sample.rss_kb = parse_kb("VmRSS:");
    if (line.rfind("VmHWM:", 0) == 0) sample.peak_rss_kb = parse_kb("VmHWM:");
  }
  return sample;
}

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  char buf[256] = {};
  fp.hostname = gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0'
                    ? std::string(buf)
                    : std::string("unknown");
  fp.cpus = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        fp.cpu_model = line.substr(begin);
      }
      break;
    }
  }
  return fp;
}

void HostProfiler::start(Trace* trace, const Options& options) {
  const std::scoped_lock lock(mu_);
  if (enabled_.load(std::memory_order_relaxed)) return;
  epoch_ = std::chrono::steady_clock::now();
  trace_.store(trace, std::memory_order_relaxed);
  sampler_stop_ = false;
  {
    const std::scoped_lock counts_lock(stage_counts().mu);
    stage_counts().items.clear();
  }
  if (trace != nullptr) {
    trace->process_name(kTracePid, "host (wall clock)");
    trace->thread_name(kTracePid, 0, "memory sampler");
  }
  // Publish before the sampler starts so its first iteration sees the
  // enabled profiler.
  enabled_.store(true, std::memory_order_release);
  if (options.sample_memory)
    sampler_ = std::thread([this, period = options.sample_period] {
      sampler_loop(period);
    });
}

void HostProfiler::stop() {
  const std::scoped_lock lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  {
    const std::scoped_lock sampler_lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  sample_memory_once();  // final sample, so short runs still record one

  const double wall_ns = now_ns();
  registry().gauge("host.wall_us").set(
      static_cast<std::int64_t>(wall_ns / 1e3));
  const double wall_s = wall_ns / 1e9;
  if (wall_s > 0) {
    const std::scoped_lock counts_lock(stage_counts().mu);
    for (const auto& [what, items] : stage_counts().items)
      registry()
          .gauge("host.rate." + what + "_per_s")
          .set(static_cast<std::int64_t>(static_cast<double>(items) /
                                         wall_s));
  }
  enabled_.store(false, std::memory_order_relaxed);
  trace_.store(nullptr, std::memory_order_relaxed);
}

void HostProfiler::print_summary(std::ostream& os) {
  std::istringstream dump(registry().dump_string());
  for (std::string line; std::getline(dump, line);)
    if (line.rfind("host.", 0) == 0) os << line << '\n';
}

double HostProfiler::now_ns() const {
  if (!enabled()) return 0.0;
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void HostProfiler::count(const char* what, std::uint64_t n) {
  if (!enabled()) return;
  registry().counter(std::string("host.count.") + what).add(n);
  const std::scoped_lock lock(stage_counts().mu);
  stage_counts().items[what] += n;
}

void HostProfiler::record_span(const char* name, double start_ns,
                               double end_ns) {
  if (!enabled()) return;
  const double dur_ns = end_ns > start_ns ? end_ns - start_ns : 0.0;
  registry()
      .histogram(std::string("host.span.") + name)
      .observe(static_cast<std::uint64_t>(dur_ns / 1e3));
  if (Trace* trace = trace_.load(std::memory_order_relaxed))
    trace->complete(kTracePid, host_tid(), name, "host", start_ns, dur_ns);
}

void HostProfiler::sampler_loop(std::chrono::milliseconds period) {
  std::unique_lock lock(sampler_mu_);
  while (!sampler_stop_) {
    lock.unlock();
    sample_memory_once();
    lock.lock();
    sampler_cv_.wait_for(lock, period, [this] { return sampler_stop_; });
  }
}

void HostProfiler::sample_memory_once() {
  const HostMemSample sample = read_host_memory();
  if (sample.rss_kb == 0 && sample.peak_rss_kb == 0) return;
  registry().gauge("host.mem.rss_kb").set(
      static_cast<std::int64_t>(sample.rss_kb));
  registry()
      .gauge("host.mem.peak_rss_kb")
      .set(static_cast<std::int64_t>(sample.peak_rss_kb));
  registry().counter("host.mem.samples").add();
  if (Trace* trace = trace_.load(std::memory_order_relaxed))
    trace->counter(kTracePid, 0, "host rss", now_ns(),
                   {{"peak_rss_kb", static_cast<double>(sample.peak_rss_kb)},
                    {"rss_kb", static_cast<double>(sample.rss_kb)}});
}

HostProfiler::~HostProfiler() { stop(); }

HostProfiler& host_profiler() {
  static HostProfiler instance;
  return instance;
}

}  // namespace hyve::obs
