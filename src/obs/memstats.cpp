#include "obs/memstats.hpp"

#include <cstdio>
#include <cstring>

#include "common/table.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace miro::obs {

namespace {

MemoryRegistry* g_memory = nullptr;            ///< set_memory's registry
thread_local MemoryRegistry* t_memory = nullptr;  ///< what memory() sees

/// Current resident set in bytes from /proc/self/status (VmRSS line), or 0
/// where that file does not exist. fscanf-free line scan: the status file
/// is small and the field is "VmRSS:   <n> kB".
std::uint64_t read_vm_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%llu", reinterpret_cast<unsigned long long*>(&kb));
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

/// Peak resident set in bytes from getrusage. ru_maxrss is kilobytes on
/// Linux and bytes on macOS; 0 where unavailable.
std::uint64_t read_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

MemoryRegistry* memory() { return t_memory; }

void set_memory(MemoryRegistry* registry) {
  g_memory = registry;
  t_memory = registry;
}

std::uint64_t MemoryRegistry::tracked_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, counters] : accounts_) total += counters.current;
  return total;
}

void MemoryRegistry::sample_rss() {
  const std::uint64_t current = read_vm_rss_bytes();
  const std::uint64_t peak = read_peak_rss_bytes();
  if (current == 0 && peak == 0) return;  // no source on this platform
  rss_bytes_ = current != 0 ? current : rss_bytes_;
  if (current > rss_peak_bytes_) rss_peak_bytes_ = current;
  if (peak > rss_peak_bytes_) rss_peak_bytes_ = peak;
  ++rss_samples_;
}

void MemoryRegistry::write_text(std::ostream& out) const {
  TextTable table({"account", "bytes", "peak bytes", ""});
  for (const auto& [name, counters] : accounts_) {
    table.add_row({name, std::to_string(counters.current),
                   std::to_string(counters.peak),
                   human_bytes(counters.current)});
  }
  const std::uint64_t total = tracked_bytes();
  table.add_row({"[tracked total]", std::to_string(total), "",
                 human_bytes(total)});
  table.print(out);
  if (rss_samples_ > 0) {
    out << "rss " << rss_bytes_ << " bytes (" << human_bytes(rss_bytes_)
        << "), peak " << rss_peak_bytes_ << " bytes ("
        << human_bytes(rss_peak_bytes_) << "), " << rss_samples_
        << " sample(s)\n";
  }
}

void MemoryRegistry::export_metrics(MetricsRegistry& registry,
                                    const std::string& prefix) const {
  for (const auto& [name, counters] : accounts_) {
    const std::string base = prefix + "." + name;
    registry.gauge(base + ".bytes")
        .set(static_cast<double>(counters.current));
    registry.gauge(base + ".peak_bytes")
        .set(static_cast<double>(counters.peak));
  }
  registry.gauge(prefix + ".tracked_bytes")
      .set(static_cast<double>(tracked_bytes()));
  if (rss_samples_ > 0) {
    registry.gauge(prefix + ".rss_bytes")
        .set(static_cast<double>(rss_bytes_));
    registry.gauge(prefix + ".rss_peak_bytes")
        .set(static_cast<double>(rss_peak_bytes_));
    registry.counter(prefix + ".rss_samples").set(rss_samples_);
  }
}

void MemoryRegistry::reset() {
  accounts_.clear();
  rss_bytes_ = 0;
  rss_peak_bytes_ = 0;
  rss_samples_ = 0;
}

}  // namespace miro::obs
