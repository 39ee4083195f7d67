#include "obs/profile.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "obs/memstats.hpp"

namespace miro::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ProfileRegistry* g_profile = nullptr;            ///< set_profile's registry
thread_local ProfileRegistry* t_profile = nullptr;  ///< what profile() sees

/// Bridges the parallel layer to per-chunk registries: every pool chunk
/// records into its own ProfileRegistry (created on the calling thread in
/// region_begin, so allocation is deterministic), and region_end merges
/// them into the attached registry in chunk order. When profiling is
/// disabled the hooks reduce to one null check and workers keep a null
/// thread-local — the zero-cost contract.
class ParallelProfileContext final : public par::WorkerContext {
 public:
  void region_begin(std::size_t chunks) override {
    // Shared, unsynchronized state: only one top-level parallel region may
    // run at a time while profiling is attached (see set_profile). Nested
    // regions run inline and never reach these hooks.
    require(!active_,
            "profile: concurrent top-level parallel regions are not "
            "supported while profiling is attached");
    active_ = g_profile != nullptr;
    if (!active_) return;
    registries_.clear();
    registries_.reserve(chunks);
    for (std::size_t i = 0; i < chunks; ++i)
      registries_.push_back(std::make_unique<ProfileRegistry>());
  }

  void chunk_enter(std::size_t chunk) override {
    if (active_) t_profile = registries_[chunk].get();
  }

  void chunk_exit(std::size_t /*chunk*/) override {
    if (active_) t_profile = nullptr;
  }

  void region_end() override {
    if (!active_) return;
    for (const auto& registry : registries_)
      g_profile->merge_from(*registry);
    registries_.clear();
    active_ = false;
  }

 private:
  bool active_ = false;
  std::vector<std::unique_ptr<ProfileRegistry>> registries_;
};

ParallelProfileContext g_parallel_context;

}  // namespace

ProfileRegistry* profile() { return t_profile; }

void set_profile(ProfileRegistry* registry) {
  g_profile = registry;
  t_profile = registry;
  par::set_worker_context(registry != nullptr ? &g_parallel_context
                                              : nullptr);
}

ProfileRegistry::ProfileRegistry(std::size_t max_spans)
    : max_spans_(max_spans) {
  require(max_spans > 0, "ProfileRegistry: max_spans must be positive");
  origin_ns_ = steady_now_ns();
}

void ProfileRegistry::set_clock(std::function<std::uint64_t()> now_ns) {
  require(stack_.empty(), "ProfileRegistry: cannot swap clock mid-span");
  clock_ = std::move(now_ns);
  origin_ns_ = clock_ ? clock_() : steady_now_ns();
}

std::uint64_t ProfileRegistry::now_ns() const {
  const std::uint64_t absolute = clock_ ? clock_() : steady_now_ns();
  return absolute >= origin_ns_ ? absolute - origin_ns_ : 0;
}

void ProfileRegistry::begin_span(const char* name, const char* category) {
  stack_.push_back({name, category, now_ns(), 0});
}

void ProfileRegistry::end_span() {
  require(!stack_.empty(), "ProfileRegistry: end_span with no open span");
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const std::uint64_t end = now_ns();
  const std::uint64_t total = end >= open.begin_ns ? end - open.begin_ns : 0;
  const std::uint64_t self = total >= open.child_ns ? total - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += total;

  auto bump = [&](SpanStats& stats) {
    ++stats.count;
    stats.total_ns += total;
    stats.self_ns += self;
    if (total > stats.max_ns) stats.max_ns = total;
  };
  bump(by_name_[open.name]);
  bump(by_category_[open.category[0] != '\0' ? open.category : "(none)"]);

  ++recorded_;
  if (spans_.size() < max_spans_) {
    spans_.push_back({open.name, open.category, open.begin_ns, end,
                      static_cast<std::uint32_t>(stack_.size())});
  } else {
    ++dropped_;
  }

  // Process-RSS sampling piggybacks on top-level span boundaries: phase
  // granularity without its own timer. Worker threads' per-chunk registries
  // see a null memory() (sampling is whole-process state and belongs to the
  // attaching thread), and with no memory registry attached the cost is the
  // null check.
  if (stack_.empty()) {
    if (MemoryRegistry* mem = memory()) mem->sample_rss();
  }
}

void ProfileRegistry::write_text(std::ostream& out) const {
  auto ms = [](std::uint64_t ns) {
    return TextTable::num(static_cast<double>(ns) / 1e6);
  };
  TextTable table(
      {"span", "count", "total ms", "self ms", "mean ms", "max ms"});
  for (const auto& [name, stats] : by_name_) {
    table.add_row({name, std::to_string(stats.count), ms(stats.total_ns),
                   ms(stats.self_ns),
                   ms(stats.count == 0 ? 0 : stats.total_ns / stats.count),
                   ms(stats.max_ns)});
  }
  for (const auto& [category, stats] : by_category_) {
    table.add_row({"[" + category + "]", std::to_string(stats.count),
                   ms(stats.total_ns), ms(stats.self_ns), "", ""});
  }
  table.print(out);
  if (dropped_ > 0) {
    out << "(span log full: " << dropped_
        << " spans aggregated but not logged)\n";
  }
}

void ProfileRegistry::merge_from(const ProfileRegistry& other) {
  require(other.stack_.empty(),
          "ProfileRegistry::merge_from: other registry has open spans");
  auto fold = [](SpanStats& into, const SpanStats& from) {
    into.count += from.count;
    into.total_ns += from.total_ns;
    into.self_ns += from.self_ns;
    if (from.max_ns > into.max_ns) into.max_ns = from.max_ns;
  };
  for (const auto& [name, stats] : other.by_name_) fold(by_name_[name], stats);
  for (const auto& [category, stats] : other.by_category_)
    fold(by_category_[category], stats);

  // Both origins are instants of the same underlying clock; shifting by
  // their difference puts the other log onto this registry's timeline.
  const std::int64_t delta = static_cast<std::int64_t>(other.origin_ns_) -
                             static_cast<std::int64_t>(origin_ns_);
  auto shift = [delta](std::uint64_t ns) {
    const std::int64_t shifted = static_cast<std::int64_t>(ns) + delta;
    return shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
  };
  for (const SpanRecord& record : other.spans_) {
    if (spans_.size() < max_spans_) {
      spans_.push_back({record.name, record.category, shift(record.begin_ns),
                        shift(record.end_ns), record.depth});
    } else {
      ++dropped_;
    }
  }
  recorded_ += other.recorded_;
  dropped_ += other.dropped_;
}

void ProfileRegistry::reset() {
  spans_.clear();
  by_name_.clear();
  by_category_.clear();
  recorded_ = 0;
  dropped_ = 0;
}

}  // namespace miro::obs
