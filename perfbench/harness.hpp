// Measurement harness of the benchmark program: clocks, process probes,
// the host-speed reference kernel, in-memory spans and small statistics.
// Everything here belongs to the benchmark, not to the program it
// measures; the program runs with its defaults and its own obs layer off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

// CPU time of the whole process and of the calling thread, in seconds.
double process_cpu_s();
double thread_cpu_s();

// VmHWM of this process in MB (10^6 bytes).
double peak_rss_mb();
// Resets VmHWM to the current RSS (/proc/self/clear_refs), so the next
// peak_rss_mb() reads the peak since this call. Where the kernel does
// not allow it, VmHWM stays the process peak.
void reset_peak_rss();

// Median and linear-interpolated quantile (q in [0, 1]); 0 for empty.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

// FNV-1a 64 over a byte stream; hex() is the digest printed for review.
class Digest {
 public:
  void add(std::string_view bytes);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// A fixed, deterministic unit of host work owned by the benchmark, built
// like the rounds it calibrates: it generates a skewed synthetic edge
// list, counting-sorts it into destination buckets, runs edge-centric
// gather/scatter passes over it, sorts packed edges and hash-indexes
// them, on one thread and a `shape` sized like the workload's graphs.
// (Four concurrent copies for the 4-worker grid were tried: too short
// to be steady, they made the correction noisier than none.) Timed next
// to every round, it tells how fast the shared host was at that moment,
// so the round can be scaled to a nominal host speed; its CPU
// accounting catches program threads that keep running outside the
// rounds. Its
// buffers are allocated once, up front, so every run does the same work
// without page faults.
class RefKernel {
 public:
  struct Shape {
    std::size_t vertices = 0;
    std::size_t edges = 0;
    // The kernel's typical time on the reference host (4-vCPU KVM guest,
    // Xeon with a 105 MiB shared L3); rounds are scaled to it.
    double nominal_s = 0;
  };
  struct Sample {
    double wall_s = 0;
    double process_cpu_s = 0;  // whole process during the kernel
    double thread_cpu_s = 0;   // the kernel's own thread
    // False when some other thread of the process used CPU while the
    // kernel ran (process CPU exceeded the kernel's own by more than
    // scheduling slack) — e.g. a worker the program left spinning.
    bool cpu_clean = true;
  };

  explicit RefKernel(Shape shape);
  Sample run();

 private:
  std::uint64_t work();

  Shape shape_;
  std::vector<std::uint32_t> src_, dst_, sorted_src_, sorted_dst_;
  std::vector<std::uint64_t> offsets_, keys_;
  std::vector<double> value_, accum_;
  std::uint64_t sink_ = 0;  // keeps the work observable
};

// Whether a kernel sample's process CPU stays within its own thread's
// CPU plus scheduling slack (exposed for the checker self-test).
bool cpu_within_kernel(double process_cpu_s, double thread_cpu_s);

// In-memory span recorder. Spans are kept until write_chrome_trace() is
// called once at exit; self times are derived from the parent links.
struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: root on its thread
  int tid = 0;
  int round = -1;  // -1: set-up
  int cell = -1;   // grid cell index, -1 elsewhere
  std::string detail;  // free-form argument (algorithm, graph key)
};

class SpanRecorder {
 public:
  // Process-wide recorder.
  static SpanRecorder& get();
  // Spans are recorded only while enabled (traced set-up and rounds).
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }
  // Round id stamped on spans opened from now on (-1: set-up).
  void set_round(int round) { round_.store(round); }

  std::int64_t open(std::string name, int cell, std::string detail);
  void close(std::int64_t id);

  std::vector<SpanRecord> snapshot() const;
  // Self time of every span: duration minus its children's durations.
  std::map<std::int64_t, double> self_times() const;
  // Writes every span as Chrome trace-event JSON ("ph":"X", µs).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> round_{-1};
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

// RAII span on the calling thread; a no-op while the recorder is off.
class Span {
 public:
  explicit Span(std::string name, int cell = -1, std::string detail = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_ = -1;
  std::int64_t saved_parent_ = -1;
};

}  // namespace perfbench
