#include "dse/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/json_escape.hpp"

namespace mte::dse {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

const char* kernel_name(sim::KernelKind k) {
  return k == sim::KernelKind::kNaive ? "naive" : "event";
}

/// Error strings are exception what()s and can carry quotes and newlines
/// (BuildError renders multi-line diagnostics): quotes are doubled per
/// RFC 4180 and newlines flattened so every record stays one line — the
/// CI drift gate and other line-oriented consumers depend on that.
std::string csv_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else if (c == '\n' || c == '\r') {
      if (!out.empty() && out.back() != ' ') out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::vector<bool> pareto_membership(const std::vector<ParetoInput>& recs) {
  std::vector<bool> member(recs.size(), false);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!recs[i].ok) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < recs.size() && !dominated; ++j) {
      if (j == i || !recs[j].ok) continue;
      const bool no_worse =
          recs[j].throughput >= recs[i].throughput && recs[j].les <= recs[i].les;
      const bool better =
          recs[j].throughput > recs[i].throughput || recs[j].les < recs[i].les;
      // Tie-break exact duplicates by position so exactly one survives.
      if (no_worse && (better || j < i)) dominated = true;
    }
    member[i] = !dominated;
  }
  return member;
}

Report::Report(SweepSpec spec, std::vector<PointRecord> records)
    : spec_(std::move(spec)), records_(std::move(records)) {
  // Throughput-vs-area Pareto frontier over the successful records.
  // pareto_ holds *point indices* (what is_pareto and the rendered
  // reports speak), not vector positions — CampaignRunner happens to
  // produce records where the two coincide, but a filtered or merged
  // record set must not silently corrupt the frontier.
  std::vector<ParetoInput> inputs(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    inputs[i].throughput =
        std::strtod(fmt("%.6f", records_[i].result.throughput).c_str(), nullptr);
    inputs[i].les = std::strtod(fmt("%.1f", records_[i].les).c_str(), nullptr);
    inputs[i].ok = records_[i].ok();
  }
  const std::vector<bool> member = pareto_membership(inputs);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (member[i]) pareto_.push_back(records_[i].point.index);
  }
  std::sort(pareto_.begin(), pareto_.end());
}

bool Report::is_pareto(std::size_t index) const {
  return std::binary_search(pareto_.begin(), pareto_.end(), index);
}

const PointRecord* Report::best_throughput() const {
  const PointRecord* best = nullptr;
  for (const auto& r : records_) {
    if (r.ok() && (best == nullptr || r.result.throughput > best->result.throughput)) {
      best = &r;
    }
  }
  return best;
}

const PointRecord* Report::cheapest() const {
  const PointRecord* best = nullptr;
  for (const auto& r : records_) {
    if (r.ok() && (best == nullptr || r.les < best->les)) best = &r;
  }
  return best;
}

std::string Report::csv_header() {
  return "schema_version,index,workload,variant,threads,shared_slots,"
         "capacity_slots,arbiter,kernel,seed,cycles,tokens,throughput,"
         "mean_wait,les,mhz,throughput_per_kle,static_bound,pareto,"
         "failure_kind,error";
}

std::vector<std::string> Report::json_point_fields() {
  return {"index",     "workload", "variant",   "threads",
          "shared_slots", "capacity_slots", "arbiter", "kernel",
          "seed",      "cycles",   "tokens",    "throughput",
          "mean_wait", "les",      "mhz",       "throughput_per_kle",
          "static_bound", "pareto", "failure_kind", "error"};
}

std::string Report::to_csv() const {
  std::ostringstream os;
  os << csv_header() << '\n';
  for (const auto& r : records_) {
    os << kReportSchemaVersion << ',' << r.point.index << ',' << r.point.workload
       << ',' << to_string(r.point.variant) << ',' << r.point.threads << ','
       << r.point.shared_slots << ',' << r.point.capacity_slots() << ','
       << mt::to_string(r.point.arbiter) << ',' << kernel_name(r.point.kernel)
       << ',' << r.seed << ',' << r.result.cycles << ',' << r.result.tokens << ','
       << fmt("%.6f", r.result.throughput) << ',' << fmt("%.6f", r.result.mean_wait)
       << ',' << fmt("%.1f", r.les) << ',' << fmt("%.3f", r.mhz) << ','
       << fmt("%.6f", r.throughput_per_kle()) << ','
       << (r.static_bound >= 0 ? fmt("%.6f", r.static_bound) : std::string{})
       << ',' << (is_pareto(r.point.index) ? 1 : 0) << ',' << r.failure_kind
       << ',' << csv_escape(r.error) << '\n';
  }
  return os.str();
}

std::string Report::metrics_csv_header() {
  return "index,label,kernel,settle_work,sched_evals,ticks,elided_ticks,"
         "demoted_to_naive";
}

std::string Report::metrics_csv() const {
  std::ostringstream os;
  os << metrics_csv_header() << '\n';
  for (const auto& r : records_) {
    const KernelMetrics& m = r.result.kernel;
    os << r.point.index << ',' << r.point.label() << ','
       << kernel_name(r.point.kernel) << ',' << fmt("%.1f", m.settle_work) << ','
       << m.sched_evals << ',' << m.ticks << ',' << m.elided_ticks << ','
       << (m.demoted_to_naive ? 1 : 0) << '\n';
  }
  return os.str();
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << kReportSchemaVersion << ",\n";
  os << "  \"generator\": \"mte_dse\",\n";
  os << "  \"campaign\": {\"seed\": " << spec_.seed << ", \"cycles\": "
     << spec_.cycles << ", \"points\": " << records_.size() << "},\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const PointRecord& r = records_[i];
    os << "    {\"index\": " << r.point.index << ", \"workload\": \""
       << obs::json_escape(r.point.workload) << "\", \"variant\": \""
       << to_string(r.point.variant) << "\", \"threads\": " << r.point.threads
       << ", \"shared_slots\": " << r.point.shared_slots
       << ", \"capacity_slots\": " << r.point.capacity_slots()
       << ", \"arbiter\": \"" << mt::to_string(r.point.arbiter)
       << "\", \"kernel\": \"" << kernel_name(r.point.kernel)
       << "\", \"seed\": " << r.seed << ", \"cycles\": " << r.result.cycles
       << ", \"tokens\": " << r.result.tokens << ", \"throughput\": "
       << fmt("%.6f", r.result.throughput) << ", \"mean_wait\": "
       << fmt("%.6f", r.result.mean_wait) << ", \"les\": " << fmt("%.1f", r.les)
       << ", \"mhz\": " << fmt("%.3f", r.mhz) << ", \"throughput_per_kle\": "
       << fmt("%.6f", r.throughput_per_kle()) << ", \"static_bound\": "
       << (r.static_bound >= 0 ? fmt("%.6f", r.static_bound) : std::string{"null"})
       << ", \"pareto\": " << (is_pareto(r.point.index) ? "true" : "false")
       << ", \"failure_kind\": \"" << obs::json_escape(r.failure_kind)
       << "\", \"error\": \"" << obs::json_escape(r.error) << "\"}"
       << (i + 1 < records_.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << "  \"pareto\": [";
  for (std::size_t i = 0; i < pareto_.size(); ++i) {
    os << pareto_[i] << (i + 1 < pareto_.size() ? ", " : "");
  }
  os << "]\n}\n";
  return os.str();
}

std::string Report::to_table() const {
  std::ostringstream os;
  os << "| idx | workload  | variant | S  | cap | arbiter        | kernel "
        "| throughput | mean_wait |      LEs |    MHz | t/kLE  | P |\n";
  os << "|-----|-----------|---------|----|-----|----------------|--------"
        "|------------|-----------|----------|--------|--------|---|\n";
  for (const auto& r : records_) {
    char line[256];
    if (r.ok()) {
      std::snprintf(line, sizeof(line),
                    "| %3zu | %-9s | %-7s | %2zu | %3zu | %-14s | %-6s "
                    "| %10.4f | %9.2f | %8.0f | %6.1f | %6.3f | %s |\n",
                    r.point.index, r.point.workload.c_str(),
                    to_string(r.point.variant), r.point.threads,
                    r.point.capacity_slots(), mt::to_string(r.point.arbiter),
                    kernel_name(r.point.kernel), r.result.throughput,
                    r.result.mean_wait, r.les, r.mhz, r.throughput_per_kle(),
                    is_pareto(r.point.index) ? "*" : " ");
    } else {
      std::snprintf(line, sizeof(line), "| %3zu | %-9s | FAILED: %s\n",
                    r.point.index, r.point.workload.c_str(), r.error.c_str());
    }
    os << line;
  }
  os << "\nPareto frontier (throughput vs LEs), cheapest first:\n";
  std::vector<const PointRecord*> by_les;
  for (const auto& r : records_) {
    if (is_pareto(r.point.index)) by_les.push_back(&r);
  }
  std::sort(by_les.begin(), by_les.end(),
            [](const PointRecord* a, const PointRecord* b) {
              return a->les < b->les;
            });
  for (const PointRecord* r : by_les) {
    char line[160];
    std::snprintf(line, sizeof(line), "  [%3zu] %-40s %8.0f LE  %8.4f tok/cyc\n",
                  r->point.index, r->point.label().c_str(), r->les,
                  r->result.throughput);
    os << line;
  }
  return os.str();
}

}  // namespace mte::dse
