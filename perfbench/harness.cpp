#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Reads a "Key:   123 kB" line of /proc/self/status; 0 when absent.
double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  return 0;
}

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const Clock::time_point kOrigin = Clock::now();

thread_local std::int64_t t_current_span = -1;
thread_local int t_tid = -1;
std::atomic<int> g_next_tid{0};

int this_tid() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double peak_rss_mb() { return status_kb("VmHWM") * 1024.0 / 1e6; }
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}
double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001B3ULL;
  }
}
std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

RefKernel::RefKernel(Shape shape)
    : shape_(shape),
      src_(shape.edges),
      dst_(shape.edges),
      sorted_src_(shape.edges),
      sorted_dst_(shape.edges),
      offsets_(shape.vertices / 256 + 2),
      keys_(shape.edges / 4),
      value_(shape.vertices),
      accum_(shape.vertices) {}

std::uint64_t RefKernel::work() {
  const std::size_t nv = shape_.vertices;
  const std::size_t ne = shape_.edges;
  // A synthetic edge list (hashing: ALU work, sequential writes).
  for (std::size_t i = 0; i < ne; ++i) {
    const std::uint64_t h = splitmix(i * 0x9E37);
    // Square the uniform draw for a skewed, R-MAT-like source degree.
    const std::uint64_t lo = h & 0xFFFFFFFFu;
    src_[i] = static_cast<std::uint32_t>((lo * lo >> 32) * nv >> 32);
    dst_[i] = static_cast<std::uint32_t>((h >> 32) * nv >> 32);
  }
  // Counting sort by destination bucket (the partitioner's scatter).
  std::fill(offsets_.begin(), offsets_.end(), 0);
  for (std::size_t i = 0; i < ne; ++i) ++offsets_[dst_[i] / 256 + 1];
  for (std::size_t k = 0; k + 1 < offsets_.size(); ++k)
    offsets_[k + 1] += offsets_[k];
  for (std::size_t i = 0; i < ne; ++i) {
    const std::uint64_t slot = offsets_[dst_[i] / 256]++;
    sorted_src_[slot] = src_[i];
    sorted_dst_[slot] = dst_[i];
  }
  // Edge-centric gather/scatter passes (the functional kernels).
  std::fill(value_.begin(), value_.end(), 1.0);
  std::fill(accum_.begin(), accum_.end(), 0.0);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < ne; ++i)
      accum_[sorted_dst_[i]] += value_[sorted_src_[i]];
    for (std::size_t v = 0; v < nv; ++v) {
      value_[v] = 0.15 + 0.85 * accum_[v] / 16.0;
      accum_[v] = 0.0;
    }
  }
  // Sort and hash-index a slice of packed edges (snapshot/symmetrize
  // and the dynamic store's locator).
  for (std::size_t i = 0; i < keys_.size(); ++i)
    keys_[i] = (static_cast<std::uint64_t>(src_[i]) << 32) | dst_[i];
  std::sort(keys_.begin(), keys_.end());
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  index.reserve(keys_.size() / 4);
  for (std::size_t i = 0; i < keys_.size(); i += 4)
    index.emplace(keys_[i], static_cast<std::uint32_t>(i));
  std::uint64_t acc = index.size() + keys_[keys_.size() / 2];
  for (std::size_t v = 0; v < nv; v += 97)
    acc += static_cast<std::uint64_t>(value_[v] * 1e6);
  return acc;
}

bool cpu_within_kernel(double process_cpu, double thread_cpu) {
  return process_cpu <= thread_cpu * 1.03 + 0.01;
}

RefKernel::Sample RefKernel::run() {
  Sample s;
  const double cpu0 = process_cpu_s();
  const double thread0 = thread_cpu_s();
  const double t0 = now_s();
  sink_ += work();
  s.wall_s = now_s() - t0;
  s.thread_cpu_s = thread_cpu_s() - thread0;
  s.process_cpu_s = process_cpu_s() - cpu0;
  s.cpu_clean = cpu_within_kernel(s.process_cpu_s, s.thread_cpu_s);
  return s;
}

SpanRecorder& SpanRecorder::get() {
  static SpanRecorder recorder;
  return recorder;
}

std::int64_t SpanRecorder::open(std::string name, int cell, std::string detail) {
  SpanRecord r;
  r.name = std::move(name);
  r.parent = t_current_span;
  r.tid = this_tid();
  r.round = round_;
  r.cell = cell;
  r.detail = std::move(detail);
  r.start = now_s();
  const std::scoped_lock lock(mu_);
  r.id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void SpanRecorder::close(std::int64_t id) {
  const double end = now_s();
  const std::scoped_lock lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = end;
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  const std::scoped_lock lock(mu_);
  return spans_;
}

std::map<std::int64_t, double> SpanRecorder::self_times() const {
  const std::vector<SpanRecord> spans = snapshot();
  std::map<std::int64_t, double> self;
  for (const SpanRecord& s : spans) self[s.id] += s.end - s.start;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  return self;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<SpanRecord> spans = snapshot();
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << buf << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"round\":" << s.round
        << ",\"cell\":" << s.cell << ",\"detail\":\"" << s.detail << "\"}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write span trace " + path);
}

Span::Span(std::string name, int cell, std::string detail) {
  SpanRecorder& rec = SpanRecorder::get();
  if (!rec.enabled()) return;
  id_ = rec.open(std::move(name), cell, std::move(detail));
  saved_parent_ = t_current_span;
  t_current_span = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  SpanRecorder::get().close(id_);
  t_current_span = saved_parent_;
}

}  // namespace perfbench
