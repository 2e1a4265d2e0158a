#include "dse/sweep_spec.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "dse/workloads.hpp"
#include "sim/rng.hpp"

namespace mte::dse {

std::optional<MebVariant> parse_meb_variant(std::string_view name) {
  if (name == "full") return MebVariant::kFull;
  if (name == "hybrid") return MebVariant::kHybrid;
  if (name == "reduced") return MebVariant::kReduced;
  return std::nullopt;
}

std::string SweepPoint::label() const {
  std::string s = workload;
  s += '/';
  s += to_string(variant);
  s += "/s" + std::to_string(threads);
  s += "/k" + std::to_string(shared_slots);
  s += '/';
  s += mt::to_string(arbiter);
  s += '/';
  s += sim::to_string(kernel);
  return s;
}

std::uint64_t point_seed(std::uint64_t campaign_seed, std::size_t point_index) {
  // splitmix64 over the combined value: decorrelates neighbouring points.
  return sim::splitmix64_mix(campaign_seed + sim::kSplitMix64Gamma * (point_index + 1));
}

std::vector<SweepPoint> SweepSpec::enumerate(const WorkloadSet& set) const {
  if (workloads.empty() || variants.empty() || threads.empty() ||
      arbiters.empty() || kernels.empty()) {
    throw std::invalid_argument("SweepSpec: every axis needs at least one value");
  }
  if (shared_slots.empty() &&
      std::find(variants.begin(), variants.end(), MebVariant::kHybrid) !=
          variants.end()) {
    throw std::invalid_argument(
        "SweepSpec: the hybrid variant needs a non-empty shared_slots axis");
  }

  static const std::vector<std::size_t> kNoSharedSlots{0};
  static const std::vector<mt::ArbiterKind> kPinnedArbiter{
      mt::ArbiterKind::kRoundRobin};
  static const std::vector<sim::KernelKind> kPinnedKernel{
      sim::KernelKind::kEventDriven};

  std::vector<SweepPoint> points;
  for (const auto& w : workloads) {
    const WorkloadTraits traits = set.at(w).traits;  // throws on unknown name
    for (const MebVariant v : variants) {
      if (v == MebVariant::kHybrid && !traits.supports_hybrid) continue;
      for (const std::size_t s : threads) {
        if (s == 0) throw std::invalid_argument("SweepSpec: thread count 0");
        // The capacity axis only varies the hybrid pool; full and reduced
        // have structurally fixed storage, so they contribute one point.
        const auto& slot_axis =
            v == MebVariant::kHybrid ? shared_slots : kNoSharedSlots;
        for (const std::size_t k : slot_axis) {
          if (v == MebVariant::kHybrid && k > s) continue;  // dead slots
          const auto& arb_axis = traits.supports_arbiter ? arbiters : kPinnedArbiter;
          for (const mt::ArbiterKind a : arb_axis) {
            const auto& kern_axis = traits.supports_kernel ? kernels : kPinnedKernel;
            for (const sim::KernelKind kern : kern_axis) {
              SweepPoint p;
              p.workload = w;
              p.variant = v;
              p.threads = s;
              p.shared_slots = v == MebVariant::kHybrid ? k : 0;
              p.arbiter = a;
              p.kernel = kern;
              bool keep = true;
              for (const auto& c : constraints) {
                if (!c(p)) {
                  keep = false;
                  break;
                }
              }
              if (!keep) continue;
              p.index = points.size();
              points.push_back(std::move(p));
            }
          }
        }
      }
    }
  }
  return points;
}

std::vector<SweepPoint> SweepSpec::enumerate() const {
  return enumerate(WorkloadSet::builtin());
}

std::string SweepSpec::serialize() const {
  std::ostringstream os;
  os << "workloads";
  for (const auto& w : workloads) os << ' ' << w;
  os << "\nvariants";
  for (const auto v : variants) os << ' ' << to_string(v);
  os << "\nthreads";
  for (const auto s : threads) os << ' ' << s;
  os << "\nshared_slots";
  for (const auto k : shared_slots) os << ' ' << k;
  os << "\narbiters";
  for (const auto a : arbiters) os << ' ' << mt::to_string(a);
  os << "\nkernels";
  for (const auto k : kernels) {
    os << ' ' << (k == sim::KernelKind::kNaive ? "naive" : "event");
  }
  os << "\ncycles " << cycles;
  os << "\nseed " << seed;
  os << '\n';
  return os.str();
}

SweepSpec SweepSpec::parse(const std::string& text) {
  SweepSpec spec;
  // Axes mentioned in the text replace the defaults entirely.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string key;
    if (!(words >> key)) continue;  // blank / comment-only line

    std::vector<std::string> values;
    for (std::string v; words >> v;) values.push_back(v);
    // A bare list key is a legal empty axis (serialize() emits one, and
    // enumerate() reports the error if the axis actually matters); the
    // scalar keys below insist on their value.
    if (values.empty() && (key == "cycles" || key == "seed")) {
      throw std::invalid_argument("SweepSpec: '" + key + "' needs a value");
    }
    // Unsigned decimal over the whole token: no sign, no trailing text,
    // no value past 2^64 - 1.
    const auto as_number = [&](const std::string& v) -> std::uint64_t {
      std::uint64_t n = 0;
      const char* const last = v.data() + v.size();
      const auto [end, ec] = std::from_chars(v.data(), last, n);
      if (ec != std::errc() || end != last) {
        throw std::invalid_argument("SweepSpec: bad number '" + v + "' for '" +
                                    key + "'");
      }
      return n;
    };

    if (key == "workloads") {
      spec.workloads = values;
    } else if (key == "variants") {
      spec.variants.clear();
      for (const auto& v : values) {
        const auto parsed = parse_meb_variant(v);
        if (!parsed) throw std::invalid_argument("SweepSpec: unknown variant '" + v + "'");
        spec.variants.push_back(*parsed);
      }
    } else if (key == "threads") {
      spec.threads.clear();
      for (const auto& v : values) spec.threads.push_back(as_number(v));
    } else if (key == "shared_slots") {
      spec.shared_slots.clear();
      for (const auto& v : values) spec.shared_slots.push_back(as_number(v));
    } else if (key == "arbiters") {
      spec.arbiters.clear();
      for (const auto& v : values) {
        const auto parsed = mt::parse_arbiter_kind(v);
        if (!parsed) throw std::invalid_argument("SweepSpec: unknown arbiter '" + v + "'");
        spec.arbiters.push_back(*parsed);
      }
    } else if (key == "kernels") {
      spec.kernels.clear();
      for (const auto& v : values) {
        const auto parsed = sim::parse_kernel_kind(v);
        if (!parsed) throw std::invalid_argument("SweepSpec: unknown kernel '" + v + "'");
        spec.kernels.push_back(*parsed);
      }
    } else if (key == "cycles") {
      spec.cycles = as_number(values.at(0));
    } else if (key == "seed") {
      spec.seed = as_number(values.at(0));
    } else {
      throw std::invalid_argument("SweepSpec: unknown key '" + key + "'");
    }
  }
  return spec;
}

}  // namespace mte::dse
