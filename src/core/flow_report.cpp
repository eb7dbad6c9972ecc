#include "core/flow_report.h"

#include <cmath>

namespace desync::core {

util::Json reportNumber(double v) {
  return util::Json::number(std::round(v * 1e6) / 1e6);
}

PassStat& FlowReport::addPass(std::string name) {
  PassStat stat;
  stat.name = std::move(name);
  passes_.push_back(std::move(stat));
  return passes_.back();
}

const PassStat* FlowReport::find(std::string_view name) const {
  for (const PassStat& p : passes_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double FlowReport::totalMs() const {
  double total = 0.0;
  for (const PassStat& p : passes_) total += p.wall_ms;
  return total;
}

util::Json FlowReport::toJson() const {
  using util::Json;
  auto count = [](auto n) { return Json::number(static_cast<double>(n)); };
  Json out = Json::object();
  out.set("total_ms", reportNumber(totalMs()));
  if (jobs_ > 0) out.set("jobs", count(jobs_));
  if (pool_contended_ > 0) {
    out.set("pool", Json::object()
                        .set("contended_sections", count(pool_contended_))
                        .set("wait_ms", reportNumber(pool_wait_ms_)));
  }
  if (bitsim_.compiles > 0) {
    out.set("bitsim",
            Json::object()
                .set("compiles", count(bitsim_.compiles))
                .set("compile_ms", reportNumber(bitsim_.compile_ms))
                .set("levels", count(bitsim_.levels))
                .set("lanes", count(bitsim_.lanes))
                .set("cycles", count(bitsim_.cycles))
                .set("lane_vectors", count(bitsim_.lane_vectors))
                .set("eval_ms", reportNumber(bitsim_.eval_ms))
                .set("vectors_per_sec", reportNumber(bitsim_.vectors_per_sec)));
  }
  if (symfe_.ran) {
    out.set("symfe",
            Json::object()
                .set("registers", count(symfe_.registers))
                .set("proved", count(symfe_.proved))
                .set("refuted", count(symfe_.refuted))
                .set("skipped", count(symfe_.skipped))
                .set("restored", count(symfe_.restored))
                .set("trivial", count(symfe_.trivial))
                .set("solvers", count(symfe_.solvers))
                .set("graph_nodes", count(symfe_.graph_nodes))
                .set("conflicts", count(symfe_.conflicts))
                .set("decisions", count(symfe_.decisions))
                .set("protocol_states", count(symfe_.protocol_states))
                .set("protocol_admissible",
                     Json::boolean(symfe_.protocol_admissible))
                .set("comb_only", Json::boolean(symfe_.comb_only))
                .set("graph_ms", reportNumber(symfe_.graph_ms))
                .set("solve_ms", reportNumber(symfe_.solve_ms))
                .set("ms", reportNumber(symfe_.ms)));
  }
  if (eco_.ran) {
    out.set("eco", Json::object()
                       .set("warm", Json::boolean(eco_.warm))
                       .set("proofs_loaded", count(eco_.proofs_loaded))
                       .set("registers_restored",
                            count(eco_.registers_restored))
                       .set("proofs_stored", count(eco_.proofs_stored)));
  }
  if (cache_.enabled) {
    out.set("cache", Json::object()
                         .set("hits", count(cache_.hits))
                         .set("misses", count(cache_.misses))
                         .set("bytes_read", count(cache_.bytes_read))
                         .set("bytes_written", count(cache_.bytes_written))
                         .set("restore_ms", reportNumber(cache_.restore_ms))
                         .set("compute_ms", reportNumber(cache_.compute_ms)));
  }
  Json passes = Json::array();
  for (const PassStat& p : passes_) {
    Json pass = Json::object();
    pass.set("name", Json::str(p.name));
    pass.set("wall_ms", reportNumber(p.wall_ms));
    if (p.work_ms > 0.0) {
      pass.set("work_ms", reportNumber(p.work_ms));
      if (p.wall_ms > 0.0) {
        pass.set("speedup", reportNumber(p.work_ms / p.wall_ms));
      }
    }
    for (const auto& [k, v] : p.counters) pass.set(k, count(v));
    passes.push(std::move(pass));
  }
  out.set("passes", std::move(passes));
  if (trace_.has_value() && trace_->enabled) {
    const trace::Summary& t = *trace_;
    Json trace = Json::object();
    trace.set("file", Json::str(t.file));
    trace.set("events", count(t.events));
    trace.set("spans", count(t.spans));
    trace.set("counter_events", count(t.counter_events));
    trace.set("worker_tracks", count(t.worker_tracks));
    if (t.worker_utilization_pct >= 0.0) {
      trace.set("worker_utilization_pct",
                reportNumber(t.worker_utilization_pct));
    }
    Json self = Json::object();
    for (const auto& [pass, ms] : t.pass_self_ms) {
      self.set(pass, reportNumber(ms));
    }
    trace.set("pass_self_ms", std::move(self));
    out.set("trace", std::move(trace));
  }
  if (!notes_.empty()) {
    Json notes = Json::array();
    for (const std::string& n : notes_) notes.push(Json::str(n));
    out.set("notes", std::move(notes));
  }
  return out;
}

ScopedPass::ScopedPass(FlowReport& report, std::string name)
    : report_(&report),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()),
      span_(name_, "pass") {}

ScopedPass::~ScopedPass() {
  const auto end = std::chrono::steady_clock::now();
  PassStat& stat = report_->addPass(std::move(name_));
  stat.wall_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  stat.work_ms = work_ms_;
  stat.counters = std::move(counters_);
}

void ScopedPass::counter(std::string key, std::int64_t value) {
  counters_.emplace_back(std::move(key), value);
}

}  // namespace desync::core
