#include "obs/attribution.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace xstream::obs {

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "scatter", "shuffle", "spill_wait", "gather", "scan_io", "migration",
};

// Skew above this (max partition busy time vs the mean) is called out as a
// partitioning problem in the diagnosis.
constexpr double kSkewHintThreshold = 1.5;
// Phases holding at least this share of accounted time earn a hint.
constexpr double kHintShareThreshold = 0.2;

std::string Pct(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", 100.0 * x);
  return buf;
}

// The flag-level advice table (mirrored in docs/observability.md). It names
// only flags a measurement backs; `share` is the phase's fraction of
// accounted time.
std::string PhaseHint(Phase ph, double share) {
  const std::string pct = Pct(share);
  switch (ph) {
    case Phase::kSpillWait:
      return "spill waits take " + pct +
             " of accounted time: raise --spill-depth, or move update files to "
             "a faster device";
    case Phase::kScanIo:
      return "edge-scan I/O takes " + pct +
             " of accounted time: enable --pin-edges or raise --memory-budget";
    case Phase::kShuffle:
      return "shuffle takes " + pct +
             " of accounted time: it runs on the compute threads, so add "
             "--threads";
    case Phase::kGather:  // only when gather read update files (Diagnose)
      return "gather takes " + pct +
             " of accounted time: raise --memory-budget so updates stay "
             "resident";
    case Phase::kMigration:
      return "residency migration takes " + pct +
             " of accounted time: raise --residency-hysteresis or keep "
             "--memory-budget stable across iterations";
    case Phase::kScatter:
    default:
      return "scatter compute takes " + pct +
             " of accounted time (compute-bound): add --threads, or reduce "
             "per-vertex work before tuning I/O flags";
  }
}

// Nearest-rank percentile over an ascending-sorted vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

void WriteDiagnosisJson(JsonWriter& w, const AttributionDiagnosis& d) {
  w.BeginObject();
  w.Field("accounted_seconds", d.accounted_seconds);
  w.Field("io_wait_seconds", d.io_wait_seconds);
  w.Field("io_bound_ratio", d.io_bound_ratio);
  w.Field("bound", d.io_bound ? "io" : "compute");
  w.Field("bottleneck", PhaseName(d.bottleneck));
  w.Key("ranked").BeginArray();
  for (const PhaseSink& s : d.ranked) {
    w.BeginObject();
    w.Field("phase", PhaseName(s.phase));
    w.Field("seconds", s.seconds);
    w.Field("share", s.share);
    w.EndObject();
  }
  w.EndArray();
  w.Key("skew").BeginObject();
  w.Field("max_mean", d.skew_max_mean);
  w.Field("p99_p50", d.skew_p99_p50);
  if (d.straggler_partition != kNoPartition) {
    w.Field("straggler_partition", static_cast<uint64_t>(d.straggler_partition));
  }
  w.EndObject();
  w.Key("hints").BeginArray();
  for (const std::string& h : d.hints) {
    w.Value(h);
  }
  w.EndArray();
  w.EndObject();
}

void WriteSnapshotJson(JsonWriter& w, const AttributionSnapshot& snap) {
  w.BeginObject();
  w.Field("name", snap.name);
  w.Field("partitions", static_cast<uint64_t>(snap.num_partitions));
  w.Field("iterations", snap.iterations);
  w.Key("phase_wall_seconds").BeginObject();
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    w.Field(kPhaseNames[ph], snap.wall[ph]);
  }
  w.EndObject();
  w.Key("cells_seconds").BeginObject();
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    w.Key(kPhaseNames[ph]).BeginArray();
    for (uint32_t p = 0; p < snap.num_partitions; ++p) {
      w.Value(snap.Cell(static_cast<Phase>(ph), p));
    }
    w.EndArray();
  }
  w.EndObject();
  w.Key("unattributed_seconds").BeginObject();
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    if (snap.unattributed[ph] > 0.0) {
      w.Field(kPhaseNames[ph], snap.unattributed[ph]);
    }
  }
  w.EndObject();
  w.Field("gather_read_wait_seconds", snap.gather_read_wait_seconds);
  w.Field("gather_reads", snap.gather_reads);
  w.Key("per_iteration").BeginArray();
  for (size_t i = 0; i < snap.per_iteration.size(); ++i) {
    w.BeginObject();
    for (int ph = 0; ph < kPhaseCount; ++ph) {
      if (snap.per_iteration[i][ph] > 0.0) {
        w.Field(kPhaseNames[ph], snap.per_iteration[i][ph]);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("diagnosis");
  WriteDiagnosisJson(w, snap.Diagnose());
  w.EndObject();
}

}  // namespace

const char* PhaseName(Phase p) {
  int i = static_cast<int>(p);
  return (i >= 0 && i < kPhaseCount) ? kPhaseNames[i] : "unknown";
}

double AttributionSnapshot::CellTotal(Phase ph) const {
  double total = 0.0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    total += Cell(ph, p);
  }
  return total;
}

double AttributionSnapshot::PartitionSeconds(uint32_t p) const {
  double total = 0.0;
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    total += Cell(static_cast<Phase>(ph), p);
  }
  return total;
}

double AttributionSnapshot::AccountedSeconds() const {
  double total = 0.0;
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    total += wall[ph];
  }
  return total;
}

AttributionDiagnosis AttributionSnapshot::Diagnose() const {
  AttributionDiagnosis d;
  d.accounted_seconds = AccountedSeconds();

  // Waits: spill + edge-scan stalls are whole phases; gather read stalls are
  // the split-out wait slice of the gather phase.
  d.io_wait_seconds = wall[static_cast<int>(Phase::kSpillWait)] +
                      wall[static_cast<int>(Phase::kScanIo)] +
                      gather_read_wait_seconds;
  if (d.accounted_seconds > 0.0) {
    d.io_bound_ratio = std::min(1.0, d.io_wait_seconds / d.accounted_seconds);
  }
  d.io_bound = d.io_bound_ratio >= 0.5;

  for (int ph = 0; ph < kPhaseCount; ++ph) {
    if (wall[ph] <= 0.0) {
      continue;
    }
    PhaseSink s;
    s.phase = static_cast<Phase>(ph);
    s.seconds = wall[ph];
    s.share = d.accounted_seconds > 0.0 ? wall[ph] / d.accounted_seconds : 0.0;
    d.ranked.push_back(s);
  }
  std::stable_sort(d.ranked.begin(), d.ranked.end(),
                   [](const PhaseSink& a, const PhaseSink& b) { return a.seconds > b.seconds; });
  if (!d.ranked.empty()) {
    d.bottleneck = d.ranked.front().phase;
  }

  // Straggler/skew index over per-partition busy time.
  if (num_partitions > 0) {
    std::vector<double> per_part(num_partitions, 0.0);
    double total = 0.0;
    double max = 0.0;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      per_part[p] = PartitionSeconds(p);
      total += per_part[p];
      if (per_part[p] > max) {
        max = per_part[p];
        d.straggler_partition = p;
      }
    }
    if (total > 0.0) {
      double mean = total / num_partitions;
      d.skew_max_mean = mean > 0.0 ? max / mean : 0.0;
      std::vector<double> sorted = per_part;
      std::sort(sorted.begin(), sorted.end());
      double p50 = Percentile(sorted, 0.50);
      double p99 = Percentile(sorted, 0.99);
      d.skew_p99_p50 = p50 > 0.0 ? p99 / p50 : 0.0;
    } else {
      d.straggler_partition = kNoPartition;
    }
  }

  // Hints: every phase holding a meaningful share, in rank order; the
  // bottleneck always speaks even when its share is small. A gather that
  // read no update file already had every update in RAM: a larger budget
  // cannot help it, so it earns no hint.
  for (size_t i = 0; i < d.ranked.size(); ++i) {
    if (d.ranked[i].phase == Phase::kGather && gather_reads == 0) {
      continue;
    }
    if (i == 0 || d.ranked[i].share >= kHintShareThreshold) {
      d.hints.push_back(PhaseHint(d.ranked[i].phase, d.ranked[i].share));
    }
  }
  if (d.skew_max_mean >= kSkewHintThreshold) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "partition skew %.2fx max/mean (straggler: partition %u): try "
                  "--partitioner=greedy or --partitioner=2ps, or raise --partitions",
                  d.skew_max_mean,
                  d.straggler_partition == kNoPartition ? 0u : d.straggler_partition);
    d.hints.push_back(buf);
  }
  return d;
}

std::string AttributionSnapshot::ToJson() const {
  JsonWriter w;
  WriteSnapshotJson(w, *this);
  return w.TakeString();
}

std::string ExplainReport(const AttributionSnapshot& snap) {
  AttributionDiagnosis d = snap.Diagnose();
  std::string out;
  char buf[256];

  std::snprintf(buf, sizeof(buf),
                "attribution[%s]: %llu iteration%s over %u partition%s, %.3fs accounted\n",
                snap.name.c_str(), static_cast<unsigned long long>(snap.iterations),
                snap.iterations == 1 ? "" : "s", snap.num_partitions,
                snap.num_partitions == 1 ? "" : "s", d.accounted_seconds);
  out += buf;
  if (d.ranked.empty()) {
    out += "  no attribution data recorded\n";
    return out;
  }
  for (size_t i = 0; i < d.ranked.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "  %zu. %-10s %8.3fs  %5.1f%%\n", i + 1,
                  PhaseName(d.ranked[i].phase), d.ranked[i].seconds, 100.0 * d.ranked[i].share);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  verdict: %s-bound (storage waits %s of accounted time: spill %s, "
                "edge-scan %s, gather reads %s)\n",
                d.io_bound ? "I/O" : "compute", Pct(d.io_bound_ratio).c_str(),
                Pct(d.accounted_seconds > 0
                        ? snap.wall[static_cast<int>(Phase::kSpillWait)] / d.accounted_seconds
                        : 0.0)
                    .c_str(),
                Pct(d.accounted_seconds > 0
                        ? snap.wall[static_cast<int>(Phase::kScanIo)] / d.accounted_seconds
                        : 0.0)
                    .c_str(),
                Pct(d.accounted_seconds > 0
                        ? snap.gather_read_wait_seconds / d.accounted_seconds
                        : 0.0)
                    .c_str());
  out += buf;
  if (snap.num_partitions > 1 && d.skew_max_mean > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  skew: partition busy time max/mean %.2fx, p99/p50 %.2fx (slowest: "
                  "partition %u)\n",
                  d.skew_max_mean, d.skew_p99_p50,
                  d.straggler_partition == kNoPartition ? 0u : d.straggler_partition);
    out += buf;
  }
  if (!d.hints.empty()) {
    out += "  hints:\n";
    for (const std::string& h : d.hints) {
      out += "    - " + h + "\n";
    }
  }
  return out;
}

#ifndef XSTREAM_DISABLE_OBS

PhaseAccountant::PhaseAccountant(std::string name, uint32_t num_partitions)
    : name_(std::move(name)),
      k_(num_partitions),
      cells_(static_cast<size_t>(kPhaseCount) * num_partitions) {
  AttributionRegistry::Global().Register(this);
}

PhaseAccountant::~PhaseAccountant() { AttributionRegistry::Global().Deregister(this); }

void PhaseAccountant::RecordCell(Phase ph, uint32_t partition, double seconds) {
  uint64_t ns = ToNs(seconds);
  if (ns == 0) {
    return;
  }
  if (partition == kNoPartition || partition >= k_) {
    unattributed_ns_[static_cast<int>(ph)].fetch_add(ns, std::memory_order_relaxed);
    return;
  }
  cells_[static_cast<size_t>(ph) * k_ + partition].fetch_add(ns, std::memory_order_relaxed);
}

void PhaseAccountant::RecordWall(Phase ph, double seconds) {
  uint64_t ns = ToNs(seconds);
  if (ns == 0) {
    return;
  }
  wall_ns_[static_cast<int>(ph)].fetch_add(ns, std::memory_order_relaxed);
}

void PhaseAccountant::RecordGatherReadWait(double seconds) {
  gather_reads_.fetch_add(1, std::memory_order_relaxed);
  uint64_t ns = ToNs(seconds);
  if (ns == 0) {
    return;
  }
  gather_read_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void PhaseAccountant::BeginIteration(uint64_t iteration) {
  iterations_.store(iteration + 1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    iter_base_[ph] = static_cast<double>(wall_ns_[ph].load(std::memory_order_relaxed)) * 1e-9;
  }
  in_iteration_ = true;
}

void PhaseAccountant::EndIteration() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!in_iteration_) {
    return;
  }
  in_iteration_ = false;
  std::array<double, kPhaseCount> delta{};
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    delta[ph] =
        static_cast<double>(wall_ns_[ph].load(std::memory_order_relaxed)) * 1e-9 - iter_base_[ph];
  }
  // Ring-capped: a very long run keeps the most recent rows, `iterations`
  // keeps the true count.
  constexpr size_t kMaxRows = 4096;
  if (per_iteration_.size() >= kMaxRows) {
    per_iteration_.erase(per_iteration_.begin());
  }
  per_iteration_.push_back(delta);
}

void PhaseAccountant::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : cells_) {
    c.store(0, std::memory_order_relaxed);
  }
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    wall_ns_[ph].store(0, std::memory_order_relaxed);
    unattributed_ns_[ph].store(0, std::memory_order_relaxed);
    iter_base_[ph] = 0.0;
  }
  gather_read_wait_ns_.store(0, std::memory_order_relaxed);
  gather_reads_.store(0, std::memory_order_relaxed);
  iterations_.store(0, std::memory_order_relaxed);
  per_iteration_.clear();
  in_iteration_ = false;
}

AttributionSnapshot PhaseAccountant::Snapshot() const {
  AttributionSnapshot snap;
  snap.name = name_;
  snap.num_partitions = k_;
  snap.iterations = iterations_.load(std::memory_order_relaxed);
  snap.cells.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    snap.cells[i] = static_cast<double>(cells_[i].load(std::memory_order_relaxed)) * 1e-9;
  }
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    snap.wall[ph] = static_cast<double>(wall_ns_[ph].load(std::memory_order_relaxed)) * 1e-9;
    snap.unattributed[ph] =
        static_cast<double>(unattributed_ns_[ph].load(std::memory_order_relaxed)) * 1e-9;
  }
  snap.gather_read_wait_seconds =
      static_cast<double>(gather_read_wait_ns_.load(std::memory_order_relaxed)) * 1e-9;
  snap.gather_reads = gather_reads_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.per_iteration = per_iteration_;
  }
  return snap;
}

AttributionRegistry& AttributionRegistry::Global() {
  static AttributionRegistry* registry = new AttributionRegistry();
  return *registry;
}

void AttributionRegistry::Register(PhaseAccountant* a) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.push_back(a);
}

void AttributionRegistry::Deregister(PhaseAccountant* a) {
  AttributionSnapshot final_snap = a->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(std::remove(live_.begin(), live_.end(), a), live_.end());
  // Accountants that never recorded anything (e.g. a store probed but not
  // run) would crowd the retired ring with noise; drop them.
  if (final_snap.AccountedSeconds() <= 0.0) {
    return;
  }
  if (retired_.size() >= kMaxRetired) {
    retired_.pop_front();
  }
  retired_.push_back(std::move(final_snap));
}

std::vector<AttributionSnapshot> AttributionRegistry::Snapshots() const {
  std::vector<AttributionSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(live_.size() + retired_.size());
  for (PhaseAccountant* a : live_) {
    out.push_back(a->Snapshot());
  }
  for (const AttributionSnapshot& s : retired_) {
    out.push_back(s);
  }
  return out;
}

std::string AttributionRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("accountants").BeginArray();
  for (const AttributionSnapshot& snap : Snapshots()) {
    WriteSnapshotJson(w, snap);
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

void AttributionRegistry::ClearRetired() {
  std::lock_guard<std::mutex> lock(mu_);
  retired_.clear();
}

#endif  // XSTREAM_DISABLE_OBS

}  // namespace xstream::obs
