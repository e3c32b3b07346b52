#include "obs/profile.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/logging.h"

namespace janus {
namespace obs {

std::string ProfileSite::Label() const {
  if (!known()) return "?";
  if (function.empty()) return "line:" + std::to_string(line);
  if (line <= 0) return function;
  return function + ":" + std::to_string(line);
}

// ---------------------------------------------------------------------------
// PlanProfile
// ---------------------------------------------------------------------------

PlanProfile::PlanProfile(std::vector<ProfileNodeInfo> nodes)
    : nodes_(std::move(nodes)),
      slots_(std::make_unique<std::atomic<Histogram*>[]>(nodes_.size())) {}

PlanProfile::~PlanProfile() {
  for (int i = 0; i < num_nodes(); ++i) {
    delete slots_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
}

void PlanProfile::Record(int index, std::int64_t dur_ns) {
  if (index < 0 || index >= num_nodes()) return;
  std::atomic<Histogram*>& slot = slots_[static_cast<std::size_t>(index)];
  Histogram* samples = slot.load(std::memory_order_acquire);
  if (samples == nullptr) {
    // First sample of this node: publish a histogram, or adopt the one a
    // racing recorder published first.
    auto fresh = std::make_unique<Histogram>();
    if (slot.compare_exchange_strong(samples, fresh.get(),
                                     std::memory_order_acq_rel)) {
      samples = fresh.release();
    }
  }
  samples->Record(dur_ns);
}

const Histogram* PlanProfile::Samples(int index) const {
  if (index < 0 || index >= num_nodes()) return nullptr;
  return slots_[static_cast<std::size_t>(index)].load(
      std::memory_order_acquire);
}

void PlanProfile::ClearSamples() {
  for (int i = 0; i < num_nodes(); ++i) {
    if (Histogram* samples = slots_[static_cast<std::size_t>(i)].load(
            std::memory_order_acquire)) {
      samples->Reset();
    }
  }
}

void PlanProfile::SetKey(std::string unit, std::string variant, int level) {
  unit_ = std::move(unit);
  variant_ = std::move(variant);
  level_ = level;
}

// ---------------------------------------------------------------------------
// ProfileRegistry
// ---------------------------------------------------------------------------

ProfileRegistry& ProfileRegistry::Global() {
  // Leaked: the JANUS_PROFILE atexit exporter must always find it alive.
  static ProfileRegistry* registry = new ProfileRegistry();
  return *registry;
}

void ProfileRegistry::Register(std::shared_ptr<PlanProfile> profile) {
  if (profile == nullptr) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (profiles_.size() >= kMaxProfiles) {
    // Orphans first: a profile whose plan is gone records nothing more.
    const auto orphan =
        std::find_if(profiles_.begin(), profiles_.end(),
                     [](const std::shared_ptr<PlanProfile>& held) {
                       return held.use_count() == 1;
                     });
    profiles_.erase(orphan != profiles_.end() ? orphan : profiles_.begin());
    ++dropped_;
  }
  profiles_.push_back(std::move(profile));
}

void ProfileRegistry::Pin(std::shared_ptr<PlanProfile> profile) {
  if (profile == nullptr) return;
  const std::lock_guard<std::mutex> lock(mu_);
  pinned_.push_back(std::move(profile));
}

std::vector<std::shared_ptr<PlanProfile>> ProfileRegistry::Profiles() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<PlanProfile>> all = pinned_;
  all.insert(all.end(), profiles_.begin(), profiles_.end());
  return all;
}

std::uint64_t ProfileRegistry::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void ProfileRegistry::Reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
  dropped_ = 0;
  for (const auto& profile : pinned_) profile->ClearSamples();
}

// ---------------------------------------------------------------------------
// Enable flags + the sampler
// ---------------------------------------------------------------------------

namespace internal {
std::atomic<bool> profiling_enabled{false};
std::atomic<bool> sampling_active{false};
// A thread's first sample comes one nominal stride in, not on its first
// node: a sample there would be scaled up as if it stood for the stride.
thread_local std::uint32_t sample_countdown = kProfileSampleEvery - 1;

void RefreshSampling() {
  sampling_active.store(
      profiling_enabled.load(std::memory_order_relaxed) || Trace::Enabled(),
      std::memory_order_relaxed);
}

std::uint32_t NextSampleGap() {
  // Per-thread xorshift32, seeded from the thread-local's address so
  // threads decorrelate without any shared state.
  thread_local std::uint32_t state = [] {
    const auto seed = static_cast<std::uint32_t>(
        reinterpret_cast<std::uintptr_t>(&sample_countdown) >> 4);
    return seed | 1u;  // xorshift must not start at 0
  }();
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return kProfileSampleEvery / 2 + state % kProfileSampleEvery;
}
}  // namespace internal

void EnableProfiling() {
  internal::profiling_enabled.store(true, std::memory_order_relaxed);
  internal::RefreshSampling();
}

void DisableProfiling() {
  internal::profiling_enabled.store(false, std::memory_order_relaxed);
  internal::RefreshSampling();
}

void RecordSample(PlanProfile& profile, int index, const char* category,
                  std::int64_t start_ns) {
  const std::int64_t dur_ns = Trace::NowNs() - start_ns;
  profile.Record(index, dur_ns);
  if (Trace::Enabled() && index >= 0 && index < profile.num_nodes()) {
    Trace::RecordComplete(profile.nodes()[static_cast<std::size_t>(index)].op,
                          category, start_ns, dur_ns);
  }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

namespace {

// Emits the scaled samples of one plan node (splitting fused-region time
// across members) into *out.
void AppendNodeSamples(const PlanProfile& profile, int index,
                       std::vector<ProfileSample>* out) {
  const Histogram* samples = profile.Samples(index);
  if (samples == nullptr || samples->Count() == 0) return;
  const ProfileNodeInfo& info =
      profile.nodes()[static_cast<std::size_t>(index)];
  const std::uint64_t scale = kProfileSampleEvery;
  const auto count = static_cast<std::uint64_t>(samples->Count());
  const auto total_ns = static_cast<std::uint64_t>(samples->Sum());
  const auto max_ns = static_cast<std::uint64_t>(samples->Max());
  const auto emit = [&](const ProfileNodeInfo& node, std::uint64_t share_ns,
                        std::uint64_t share_max_ns) {
    ProfileSample sample;
    sample.unit = profile.unit();
    sample.variant = profile.variant();
    sample.level = profile.despecialization_level();
    sample.function = node.site.function;
    sample.line = node.site.line;
    sample.stmt = node.site.stmt;
    sample.op = node.op;
    sample.node = node.name;
    sample.count = count * scale;
    sample.total_ns = share_ns * scale;
    sample.max_ns = share_max_ns;
    out->push_back(std::move(sample));
  };
  if (info.members.empty()) {
    emit(info, total_ns, max_ns);
    return;
  }
  // Fused region: the timer wraps the whole region dispatch, so the split
  // across members is an even-share estimate (documented in DESIGN.md §13).
  const auto num_members = static_cast<std::uint64_t>(info.members.size());
  for (const ProfileNodeInfo& member : info.members) {
    emit(member, total_ns / num_members, max_ns / num_members);
  }
}

}  // namespace

std::vector<ProfileSample> CollectProfileSamples() {
  std::vector<ProfileSample> samples;
  for (const auto& profile : ProfileRegistry::Global().Profiles()) {
    for (int i = 0; i < profile->num_nodes(); ++i) {
      AppendNodeSamples(*profile, i, &samples);
    }
  }
  return samples;
}

std::vector<ProfileUnitTotals> CollectProfileUnitTotals() {
  std::map<std::tuple<std::string, std::string, int>, ProfileUnitTotals>
      by_key;
  for (const auto& profile : ProfileRegistry::Global().Profiles()) {
    ProfileUnitTotals& totals =
        by_key[{profile->unit(), profile->variant(),
                profile->despecialization_level()}];
    totals.unit = profile->unit();
    totals.variant = profile->variant();
    totals.level = profile->despecialization_level();
    totals.generation_ns += profile->generation_ns();
    totals.validation_ns += profile->validation_ns();
    totals.runs += profile->runs();
    for (int i = 0; i < profile->num_nodes(); ++i) {
      if (const Histogram* samples = profile->Samples(i)) {
        totals.execution_ns +=
            static_cast<std::uint64_t>(samples->Sum()) * kProfileSampleEvery;
      }
    }
  }
  std::vector<ProfileUnitTotals> out;
  out.reserve(by_key.size());
  for (auto& [key, totals] : by_key) out.push_back(std::move(totals));
  return out;
}

std::map<std::string, double> ProfileNodeMeanNs() {
  // Both count and time are scaled by the stride, so their ratio is the
  // sampled mean; fused members carry their even share of the region.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_name;
  for (const ProfileSample& sample : CollectProfileSamples()) {
    auto& [count, total_ns] = by_name[sample.node];
    count += sample.count;
    total_ns += sample.total_ns;
  }
  std::map<std::string, double> means;
  for (const auto& [name, acc] : by_name) {
    means[name] =
        static_cast<double>(acc.second) / static_cast<double>(acc.first);
  }
  return means;
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

namespace {

std::string SiteLabelOf(const ProfileSample& sample) {
  return ProfileSite{sample.function, sample.line, sample.stmt}.Label();
}

}  // namespace

std::string RenderProfileText() {
  const std::vector<ProfileSample> samples = CollectProfileSamples();
  const std::vector<ProfileUnitTotals> units = CollectProfileUnitTotals();
  std::ostringstream out;
  out << "janus continuous profile (sample stride " << kProfileSampleEvery
      << ", times are scaled estimates)\n";
  out << "profiling " << (ProfilingEnabled() ? "enabled" : "disabled")
      << "; " << ProfileRegistry::Global().Profiles().size()
      << " plan(s) registered, " << ProfileRegistry::Global().dropped()
      << " dropped\n\n";

  out << "== units (inclusive phase split) ==\n";
  for (const ProfileUnitTotals& unit : units) {
    out << (unit.unit.empty() ? "<unattributed>" : unit.unit) << " ["
        << unit.variant << " L" << unit.level << "] runs=" << unit.runs
        << " generation=" << unit.generation_ns
        << "ns validation=" << unit.validation_ns
        << "ns execution~=" << unit.execution_ns << "ns\n";
  }

  // Rollup by source line.
  std::map<std::string, std::uint64_t> by_line;
  std::uint64_t grand_total = 0;
  for (const ProfileSample& sample : samples) {
    by_line[SiteLabelOf(sample)] += sample.total_ns;
    grand_total += sample.total_ns;
  }
  std::vector<std::pair<std::string, std::uint64_t>> lines(by_line.begin(),
                                                           by_line.end());
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  out << "\n== by source line ==\n";
  for (const auto& [label, total_ns] : lines) {
    const double share =
        grand_total > 0 ? 100.0 * static_cast<double>(total_ns) /
                              static_cast<double>(grand_total)
                        : 0.0;
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%5.1f%%", share);
    out << pct << "  " << total_ns << "ns  " << label << "\n";
  }

  // Top nodes.
  std::vector<ProfileSample> top = samples;
  std::sort(top.begin(), top.end(),
            [](const ProfileSample& a, const ProfileSample& b) {
              return a.total_ns > b.total_ns;
            });
  if (top.size() > 32) top.resize(32);
  out << "\n== top nodes ==\n";
  for (const ProfileSample& sample : top) {
    out << sample.total_ns << "ns  count=" << sample.count
        << "  max=" << sample.max_ns << "ns  " << sample.op << " "
        << sample.node << "  @" << SiteLabelOf(sample);
    if (!sample.unit.empty()) {
      out << "  [" << sample.unit << " " << sample.variant << " L"
          << sample.level << "]";
    }
    out << "\n";
  }
  return out.str();
}

std::string RenderFoldedStacks() {
  // Merge identical stacks: re-registered plans for the same unit produce
  // samples with the same frames.
  std::map<std::string, std::uint64_t> folded;
  for (const ProfileSample& sample : CollectProfileSamples()) {
    if (sample.total_ns == 0) continue;
    std::string stack = sample.unit.empty() ? "<unattributed>" : sample.unit;
    stack += ';';
    stack += sample.function.empty() ? "?" : sample.function;
    stack += ';';
    stack += SiteLabelOf(sample);
    stack += ';';
    stack += sample.op;
    folded[stack] += sample.total_ns;
  }
  std::ostringstream out;
  for (const auto& [stack, ns] : folded) {
    out << stack << ' ' << ns << '\n';
  }
  return out.str();
}

void WriteFoldedStacks(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    JANUS_LOG(kError) << "cannot open profile output file '" << path << "'";
    return;
  }
  file << RenderFoldedStacks();
}

// ---------------------------------------------------------------------------
// Folded parsing + diffing
// ---------------------------------------------------------------------------

bool ParseFoldedProfile(std::string_view text, FoldedProfile* out,
                        std::string* error) {
  FoldedProfile parsed;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": expected '<stack> <value>'";
      }
      return false;
    }
    const std::string_view value_text = line.substr(space + 1);
    double value = 0;
    const auto [ptr, ec] = std::from_chars(
        value_text.data(), value_text.data() + value_text.size(), value);
    if (ec != std::errc() || ptr != value_text.data() + value_text.size() ||
        value < 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": malformed sample value '" + std::string(value_text) + "'";
      }
      return false;
    }
    parsed.stack_ns[std::string(line.substr(0, space))] += value;
    parsed.total_ns += value;
  }
  if (out != nullptr) *out = std::move(parsed);
  return true;
}

ProfileDiffResult DiffProfilesBySite(const FoldedProfile& before,
                                     const FoldedProfile& after) {
  // Key on the stack minus its leaf (op) frame: the same source site keeps
  // its identity across rewrites that change which ops implement it.
  const auto site_of = [](const std::string& stack) {
    const std::size_t semi = stack.rfind(';');
    return semi == std::string::npos ? stack : stack.substr(0, semi);
  };
  std::map<std::string, std::pair<double, double>> by_site;
  for (const auto& [stack, ns] : before.stack_ns) {
    by_site[site_of(stack)].first += ns;
  }
  for (const auto& [stack, ns] : after.stack_ns) {
    by_site[site_of(stack)].second += ns;
  }
  ProfileDiffResult result;
  for (const auto& [site, ns] : by_site) {
    ProfileDiffEntry entry;
    entry.site = site;
    entry.before_ns = ns.first;
    entry.after_ns = ns.second;
    entry.before_share =
        before.total_ns > 0 ? ns.first / before.total_ns : 0.0;
    entry.after_share = after.total_ns > 0 ? ns.second / after.total_ns : 0.0;
    entry.delta_pp = 100.0 * (entry.after_share - entry.before_share);
    result.max_regression_pp =
        std::max(result.max_regression_pp, entry.delta_pp);
    result.entries.push_back(std::move(entry));
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const ProfileDiffEntry& a, const ProfileDiffEntry& b) {
              return a.delta_pp > b.delta_pp;
            });
  return result;
}

// ---------------------------------------------------------------------------
// JANUS_PROFILE env hook
// ---------------------------------------------------------------------------

namespace {

// JANUS_PROFILE=<path>: enable profiling for the whole process and write a
// folded-stacks dump at exit — flamegraph.pl renders it directly. Mirrors
// the JANUS_TRACE hook so any binary can be profiled with no code changes.
struct ProfileEnvInit {
  ProfileEnvInit() {
    const char* path = std::getenv("JANUS_PROFILE");
    if (path == nullptr || path[0] == '\0') return;
    ProfileRegistry::Global();  // the (leaked) registry outlives the handler
    EnableProfiling();
    static std::string output_path;  // atexit handlers take no arguments
    output_path = path;
    std::atexit([] { WriteFoldedStacks(output_path); });
  }
};
const ProfileEnvInit profile_env_init;

}  // namespace

}  // namespace obs
}  // namespace janus
