// Closed-loop benchmark harness for DynaMast (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject-lost-update]
//
// Builds one DynaMast deployment through workloads::MakeSystem, drives it
// with workloads::Driver, checks the outcome (replicas converge to
// identical rows; YCSB increments are conserved; the traced run's history
// passes the SI auditor) and prints every metric by name with its unit.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// splits the window into an untraced phase (the harness's own timers and
// the registry) and a traced phase (spans + history), and reports the
// per-layer metrics. The harness only wraps public interfaces: the
// SystemInterface (Execute), the Workload / WorkloadClient (Next) and the
// TxnContext handed to each TxnLogic (Get / Put / Insert).

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/dynamast_system.h"
#include "tools/si_checker.h"
#include "workloads/driver.h"
#include "workloads/system_factory.h"
#include "workloads/tpcc.h"
#include "workloads/ycsb.h"

namespace dynamast::perfbench {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------
// Workload configurations. The names are fixed: later changes refer to
// them. README.md records why each one was chosen.
// ---------------------------------------------------------------------

enum class Kind { kYcsb, kTpcc };

struct WorkloadConfig {
  const char* name;
  Kind kind;
  uint32_t sites;
  uint32_t clients;
  size_t worker_slots;
  // Simulated costs; all zero means software capacity (real CPU only).
  microseconds read_cost, write_cost, apply_cost, one_way_latency;
  bool charge_network;
  milliseconds warmup;
  // Longest traced window (0: half the run). The history auditor's cost
  // grows with the square of a hot key's writers and readers, so the
  // fast workloads trace a short window to keep the audit bounded.
  double max_traced_s;
  // YCSB only.
  bool zipfian = false;
  uint32_t rmw_pct = 0;
};

constexpr microseconds kZero{0};

const WorkloadConfig kWorkloads[] = {
    {"ycsb_skew_cpu", Kind::kYcsb, 3, 2, 4, kZero, kZero, kZero, kZero,
     /*charge_network=*/false, milliseconds(1000), /*max_traced_s=*/1.0,
     /*zipfian=*/true, /*rmw_pct=*/90},
    // Two worker slots per site: with one, about half the writes queue
    // behind a scan, so the write p50 flips between the queued and
    // unqueued modes from run to run (README.md).
    {"ycsb_uniform_modeled", Kind::kYcsb, 4, 4, 2, microseconds(10),
     microseconds(500), microseconds(100), microseconds(250),
     /*charge_network=*/true, milliseconds(2000), /*max_traced_s=*/0,
     /*zipfian=*/false, /*rmw_pct=*/50},
    {"tpcc_cpu", Kind::kTpcc, 3, 2, 4, kZero, kZero, kZero, kZero,
     /*charge_network=*/false, milliseconds(500), /*max_traced_s=*/0.25},
};

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<workloads::Workload> MakeWorkload(const WorkloadConfig& cfg,
                                                  uint64_t seed) {
  if (cfg.kind == Kind::kYcsb) {
    workloads::YcsbWorkload::Options o;
    o.num_keys = 100'000;
    o.value_size = 120;
    o.zipfian = cfg.zipfian;
    o.zipf_theta = 0.75;
    o.rmw_pct = cfg.rmw_pct;
    o.seed = seed;
    return std::make_unique<workloads::YcsbWorkload>(o);
  }
  workloads::TpccWorkload::Options o;
  o.num_warehouses = 4;
  o.num_items = 1000;
  o.cross_warehouse_neworder_pct = 10;
  o.remote_payment_pct = 15;
  o.new_order_pct = 45;
  o.payment_pct = 45;
  o.stock_level_pct = 10;
  o.seed = seed;
  return std::make_unique<workloads::TpccWorkload>(o);
}

std::string DescribeConfig(const WorkloadConfig& cfg) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "sites=%u clients=%u worker_slots=%zu read_us=%lld write_us=%lld "
      "apply_us=%lld one_way_us=%lld charge_network=%d warmup_ms=%lld "
      "weights=%s",
      cfg.sites, cfg.clients, cfg.worker_slots,
      static_cast<long long>(cfg.read_cost.count()),
      static_cast<long long>(cfg.write_cost.count()),
      static_cast<long long>(cfg.apply_cost.count()),
      static_cast<long long>(cfg.one_way_latency.count()),
      cfg.charge_network ? 1 : 0,
      static_cast<long long>(cfg.warmup.count()),
      cfg.kind == Kind::kYcsb ? "ycsb" : "tpcc");
  std::string out = buf;
  if (cfg.kind == Kind::kYcsb) {
    std::snprintf(buf, sizeof(buf),
                  " ycsb_keys=100000 value_bytes=120 dist=%s rmw_pct=%u "
                  "rmw_keys=3 scan_partitions=2-10",
                  cfg.zipfian ? "zipf0.75" : "uniform", cfg.rmw_pct);
  } else {
    std::snprintf(buf, sizeof(buf),
                  " warehouses=4 items=1000 mix=45/45/10 "
                  "cross_wh_neworder_pct=10 remote_payment_pct=15 "
                  "placement=round-robin");
  }
  return out + buf;
}

// ---------------------------------------------------------------------
// Deployment: one loaded and sealed DynaMast system. Member order is
// destruction order in reverse: the system holds the workload's
// partitioner and exports into the registry.
// ---------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<metrics::Registry> registry;
  std::unique_ptr<workloads::Workload> workload;
  std::unique_ptr<core::SystemInterface> system;
  core::DynaMastSystem* dynamast = nullptr;
  double setup_s = 0;  // Load + Seal
};

std::unique_ptr<Deployment> SetUp(const WorkloadConfig& cfg, uint64_t seed,
                                  bool traced) {
  auto d = std::make_unique<Deployment>();
  d->registry = std::make_unique<metrics::Registry>();
  d->workload = MakeWorkload(cfg, seed);
  workloads::DeploymentOptions o;
  o.num_sites = cfg.sites;
  o.worker_slots = cfg.worker_slots;
  o.read_op_cost = cfg.read_cost;
  o.write_op_cost = cfg.write_cost;
  o.apply_op_cost = cfg.apply_cost;
  o.one_way_latency = cfg.one_way_latency;
  o.charge_network = cfg.charge_network;
  o.weights = cfg.kind == Kind::kYcsb ? selector::StrategyWeights::Ycsb()
                                      : selector::StrategyWeights::Tpcc();
  o.seed = seed;
  o.metrics = d->registry.get();
  o.trace = traced;
  o.record_history = traced;
  d->system = workloads::MakeSystem(workloads::SystemKind::kDynaMast, o,
                                    d->workload->partitioner());
  d->dynamast = dynamic_cast<core::DynaMastSystem*>(d->system.get());
  if (d->dynamast == nullptr) {
    std::fprintf(stderr, "perfbench: MakeSystem did not build DynaMast\n");
    std::exit(2);
  }
  const int64_t t0 = NowNs();
  Status s = d->workload->Load(*d->system);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: load failed: %s\n",
                 s.ToString().c_str());
    std::exit(2);
  }
  d->system->Seal();
  d->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return d;
}

// ---------------------------------------------------------------------
// Harness state shared by the wrappers.
// ---------------------------------------------------------------------

// Latency percentiles are taken per sub-window and reported as their
// median across the kParts sub-windows, so a burst of host noise (CPU
// steal on a shared machine) moves one sub-window, not the result. Five
// 9 s sub-windows of a 45 s run hold more than ten samples beyond
// every p99 on the slowest workload.
constexpr size_t kParts = 5;
using PartSamples = std::array<std::vector<double>, kParts>;

// The measured window, opened by a Driver scheduled action at the end of
// warmup. A sample belongs to the window when it completes inside it,
// which is how the Driver classifies committed transactions.
class Window {
 public:
  void Open(int64_t now_ns, int64_t length_ns) {
    end_.store(now_ns + length_ns, std::memory_order_relaxed);
    start_.store(now_ns, std::memory_order_release);
  }
  bool Contains(int64_t t_ns) const {
    const int64_t start = start_.load(std::memory_order_acquire);
    return t_ns >= start && t_ns < end_.load(std::memory_order_relaxed);
  }
  // Which of kParts equal sub-windows `t_ns` (inside the window) falls in.
  size_t Part(int64_t t_ns) const {
    const int64_t start = start_.load(std::memory_order_acquire);
    const int64_t length = end_.load(std::memory_order_relaxed) - start;
    return static_cast<size_t>((t_ns - start) * kParts / length);
  }

 private:
  std::atomic<int64_t> start_{INT64_MAX};
  std::atomic<int64_t> end_{INT64_MAX};
};

// One client thread's tallies. The Driver gives client i the session id
// i + 1 and the generator MakeClient(i), so each slot has one writer.
struct alignas(64) ClientTally {
  PartSamples read_us, write_us;  // Execute latency, in window
  uint64_t committed = 0, failed = 0, retries = 0;
  uint64_t logic_runs = 0, gets = 0, puts = 0, nexts = 0;
  int64_t logic_self_ns = 0, get_ns = 0, put_ns = 0, next_ns = 0;
  int64_t execute_cpu_ns = 0;
  // YCSB counter increments of committed final attempts, whole run
  // (warmup and the post-window tail included).
  uint64_t increments = 0;
};

struct Harness {
  Harness(uint32_t clients, bool timers, bool conserve, bool inject)
      : tallies(clients + 1), timers(timers), conserve(conserve),
        lost_update_armed(inject) {}

  std::vector<ClientTally> tallies;
  Window window;
  const bool timers;    // per-layer clocks (trace runs only)
  const bool conserve;  // YCSB counter conservation
  // Test hook: drop the increment of exactly one Put.
  std::atomic<bool> lost_update_armed;
};

// Accounting of one Execute call, across every run of its logic.
struct TxnAccount {
  uint64_t runs = 0, gets = 0, puts = 0;
  int64_t self_ns = 0, get_ns = 0, put_ns = 0;
  uint64_t increments = 0;  // of the last run only
  bool track_increments = false;  // YCSB write transactions
  std::vector<std::pair<RecordKey, uint64_t>> observed;  // counter per key

  uint64_t Observed(const RecordKey& key) const {
    for (const auto& [k, counter] : observed) {
      if (k == key) return counter;
    }
    return 0;
  }
  void Observe(const RecordKey& key, uint64_t counter) {
    for (auto& [k, c] : observed) {
      if (k == key) {
        c = counter;
        return;
      }
    }
    observed.emplace_back(key, counter);
  }
};

// The TxnContext each logic run sees: forwards to the system's context,
// counts and (with timers) times every call, and tallies YCSB increments.
class CountingContext final : public core::TxnContext {
 public:
  CountingContext(core::TxnContext& inner, TxnAccount& account,
                  Harness& harness)
      : inner_(inner), account_(account), harness_(harness) {}

  Status Get(const RecordKey& key, std::string* value) override {
    const int64_t t0 = harness_.timers ? NowNs() : 0;
    Status s = inner_.Get(key, value);
    if (harness_.timers) {
      const int64_t d = NowNs() - t0;
      account_.get_ns += d;
      op_ns_ += d;
    }
    account_.gets++;
    if (s.ok() && account_.track_increments) {
      account_.Observe(key, workloads::YcsbWorkload::ValueCounter(*value));
    }
    return s;
  }

  Status Put(const RecordKey& key, std::string value) override {
    uint64_t delta = 0;
    if (account_.track_increments) {
      const uint64_t before = account_.Observed(key);
      delta = workloads::YcsbWorkload::ValueCounter(value) - before;
      if (delta > 0 &&
          harness_.lost_update_armed.exchange(false,
                                              std::memory_order_relaxed)) {
        value = workloads::YcsbWorkload::MakeValue(before, value.size());
      }
    }
    return Write(key, std::move(value), /*insert=*/false, delta);
  }

  Status Insert(const RecordKey& key, std::string value) override {
    return Write(key, std::move(value), /*insert=*/true, 0);
  }

  int64_t op_ns() const { return op_ns_; }

 private:
  Status Write(const RecordKey& key, std::string value, bool insert,
               uint64_t delta) {
    const int64_t t0 = harness_.timers ? NowNs() : 0;
    Status s = insert ? inner_.Insert(key, std::move(value))
                      : inner_.Put(key, std::move(value));
    if (harness_.timers) {
      const int64_t d = NowNs() - t0;
      account_.put_ns += d;
      op_ns_ += d;
    }
    account_.puts++;
    if (s.ok()) account_.increments += delta;
    return s;
  }

  core::TxnContext& inner_;
  TxnAccount& account_;
  Harness& harness_;
  int64_t op_ns_ = 0;
};

// Wraps one TxnLogic for one Execute call. Captured by pointer so the
// std::function the system receives stays allocation-free.
struct LogicRun {
  const core::TxnLogic* logic;
  TxnAccount* account;
  Harness* harness;

  Status operator()(core::TxnContext& inner) const {
    // The logic is restartable: a rerun starts a fresh attempt.
    account->runs++;
    account->increments = 0;
    account->observed.clear();
    CountingContext context(inner, *account, *harness);
    const int64_t t0 = harness->timers ? NowNs() : 0;
    Status s = (*logic)(context);
    if (harness->timers) account->self_ns += NowNs() - t0 - context.op_ns();
    return s;
  }
};

// Times every Execute and hands the system a counting logic wrapper. The
// Driver calls nothing else; the remaining overrides only forward.
class TimedSystem final : public core::SystemInterface {
 public:
  TimedSystem(core::SystemInterface& inner, Harness& harness)
      : inner_(inner), harness_(harness) {}

  std::string name() const override { return inner_.name(); }
  Status CreateTable(TableId id) override { return inner_.CreateTable(id); }
  Status LoadRow(const RecordKey& key, std::string value) override {
    return inner_.LoadRow(key, std::move(value));
  }
  void Shutdown() override { inner_.Shutdown(); }

  Status Execute(core::ClientState& client, const core::TxnProfile& profile,
                 const core::TxnLogic& logic,
                 core::TxnResult* result) override {
    ClientTally& tally = harness_.tallies.at(client.id);
    TxnAccount account;
    account.track_increments = harness_.conserve && !profile.read_only;
    const LogicRun run{&logic, &account, &harness_};
    core::TxnResult local;
    if (result == nullptr) result = &local;
    const int64_t cpu0 =
        harness_.timers ? CpuNs(CLOCK_THREAD_CPUTIME_ID) : 0;
    const int64_t t0 = NowNs();
    Status s = inner_.Execute(client, profile, core::TxnLogic(run), result);
    const int64_t t1 = NowNs();
    if (s.ok()) tally.increments += account.increments;
    if (!harness_.window.Contains(t1)) return s;
    if (harness_.timers) {
      tally.execute_cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    }
    if (!s.ok()) {
      tally.failed++;
      return s;
    }
    tally.committed++;
    tally.retries += result->retries;
    (profile.read_only ? tally.read_us : tally.write_us)[harness_.window.Part(t1)]
        .push_back(static_cast<double>(t1 - t0) / 1e3);
    tally.logic_runs += account.runs;
    tally.gets += account.gets;
    tally.puts += account.puts;
    tally.logic_self_ns += account.self_ns;
    tally.get_ns += account.get_ns;
    tally.put_ns += account.put_ns;
    return s;
  }

 private:
  core::SystemInterface& inner_;
  Harness& harness_;
};

// Times the generator (trace runs only).
class TimedClient final : public workloads::WorkloadClient {
 public:
  TimedClient(std::unique_ptr<workloads::WorkloadClient> inner,
              ClientTally& tally, Harness& harness)
      : inner_(std::move(inner)), tally_(tally), harness_(harness) {}

  workloads::WorkloadTxn Next() override {
    if (!harness_.timers) return inner_->Next();
    const int64_t t0 = NowNs();
    workloads::WorkloadTxn txn = inner_->Next();
    const int64_t t1 = NowNs();
    if (harness_.window.Contains(t1)) {
      tally_.nexts++;
      tally_.next_ns += t1 - t0;
    }
    return txn;
  }

 private:
  std::unique_ptr<workloads::WorkloadClient> inner_;
  ClientTally& tally_;
  Harness& harness_;
};

// Hands the Driver timed generators over the real workload.
class TimedWorkload final : public workloads::Workload {
 public:
  TimedWorkload(workloads::Workload& inner, Harness& harness)
      : inner_(inner), harness_(harness) {}

  std::string name() const override { return inner_.name(); }
  const Partitioner& partitioner() const override {
    return inner_.partitioner();
  }
  Status Load(core::SystemInterface& system) override {
    return inner_.Load(system);
  }
  std::unique_ptr<workloads::WorkloadClient> MakeClient(
      uint64_t index) override {
    return std::make_unique<TimedClient>(inner_.MakeClient(index),
                                         harness_.tallies.at(index + 1),
                                         harness_);
  }

 private:
  workloads::Workload& inner_;
  Harness& harness_;
};

// ---------------------------------------------------------------------
// Correctness gate.
// ---------------------------------------------------------------------

struct CheckResult {
  bool ok = true;
  std::vector<std::string> lines;  // human-readable findings

  void Fail(std::string what) {
    ok = false;
    lines.push_back("FAIL " + std::move(what));
  }
};

// Waits until every site has applied every other site's log (all version
// vectors equal), then compares every row of every table across replicas
// and, for YCSB, checks that each replica's counters sum to the
// increments the clients committed.
void CheckReplicas(core::DynaMastSystem& dm, bool conserve,
                   uint64_t increments, CheckResult* out) {
  core::Cluster& cluster = dm.cluster();
  const uint32_t n = cluster.num_sites();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + 60'000'000'000LL;
  while (true) {
    const VersionVector v0 = cluster.site(0)->CurrentVersion();
    bool equal = true;
    for (SiteId s = 1; s < n && equal; ++s) {
      equal = cluster.site(s)->CurrentVersion() == v0;
    }
    if (equal) break;
    if (NowNs() > deadline) {
      out->Fail("replicas did not converge within 60 s");
      return;
    }
    std::this_thread::sleep_for(microseconds(200));
  }
  const double quiesce_ms = static_cast<double>(NowNs() - t0) / 1e6;

  storage::StorageEngine& e0 = cluster.site(0)->engine();
  std::vector<TableId> tables = e0.TableIds();
  std::sort(tables.begin(), tables.end());
  std::vector<uint64_t> counter_sum(n, 0);
  size_t rows = 0;
  for (SiteId s = 1; s < n; ++s) {
    std::vector<TableId> other = cluster.site(s)->engine().TableIds();
    std::sort(other.begin(), other.end());
    if (other != tables) out->Fail("site " + std::to_string(s) +
                                   " has a different table set");
  }
  for (TableId t : tables) {
    std::vector<uint64_t> ids;
    e0.GetTable(t)->ForEachRowId([&](uint64_t id) { ids.push_back(id); });
    rows += ids.size();
    for (SiteId s = 1; s < n; ++s) {
      const storage::Table* table = cluster.site(s)->engine().GetTable(t);
      if (table == nullptr || table->NumRows() != ids.size()) {
        out->Fail("table " + std::to_string(t) + " row count differs at site " +
                  std::to_string(s));
      }
    }
    std::string v0, v;
    for (uint64_t id : ids) {
      const RecordKey key{t, id};
      if (!e0.ReadLatest(key, &v0).ok()) {
        out->Fail("unreadable row at site 0");
        return;
      }
      if (conserve) counter_sum[0] += workloads::YcsbWorkload::ValueCounter(v0);
      for (SiteId s = 1; s < n; ++s) {
        if (!cluster.site(s)->engine().ReadLatest(key, &v).ok() || v != v0) {
          out->Fail("row (" + std::to_string(t) + "," + std::to_string(id) +
                    ") differs between site 0 and site " + std::to_string(s));
          return;
        }
        if (conserve) counter_sum[s] += workloads::YcsbWorkload::ValueCounter(v);
      }
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "check replicas: quiesced in %.3f ms; %zu rows identical at "
                "%u sites",
                quiesce_ms, rows, n);
  out->lines.push_back(buf);
  if (!conserve) return;
  for (SiteId s = 0; s < n; ++s) {
    if (counter_sum[s] != increments) {
      out->Fail("conservation: site " + std::to_string(s) +
                " counters sum to " + std::to_string(counter_sum[s]) +
                " but clients committed " + std::to_string(increments) +
                " increments (lost or phantom update)");
      return;
    }
  }
  out->lines.push_back("check conservation: every site's counters sum to " +
                       std::to_string(increments) + " committed increments");
}

// Audits the traced phase's history: the SI / strong-session auditor and
// the exact metrics <-> history reconciliation.
void AuditHistory(Deployment& d, CheckResult* out) {
  const int64_t t0 = NowNs();
  const std::vector<history::HistoryEvent> events =
      d.system->history()->Snapshot();
  const tools::AuditReport report = tools::AuditHistory(
      events, tools::OptionsForSystem(d.system->name()));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "check audit: %zu events, %zu commits, %zu reads checked, "
                "%zu anomalies, %zu ssi dangerous structures (%.1f s)",
                events.size(), report.commits, report.reads_checked,
                report.anomalies.size(), report.dangerous_structures,
                static_cast<double>(NowNs() - t0) / 1e9);
  out->lines.push_back(buf);
  for (size_t i = 0; i < report.anomalies.size() && i < 5; ++i) {
    out->Fail("audit: " + report.anomalies[i].ToString());
  }
  if (report.commits == 0) out->Fail("audit: empty history");
  tools::MetricsReconciliation rec;
  Status s = tools::ReconcileMetrics(events, d.registry->SnapshotJson(), &rec);
  if (!s.ok()) {
    out->Fail("reconcile: " + s.ToString());
  } else if (!rec.ok()) {
    out->Fail(rec.ToString());
  } else {
    out->lines.push_back("check " + rec.ToString());
  }
}

// ---------------------------------------------------------------------
// One measured phase.
// ---------------------------------------------------------------------

// Slice length for the medians; every warmup is a multiple of it.
constexpr milliseconds kSlice{500};

struct Phase {
  workloads::Driver::Report report;
  ClientTally total;  // tallies merged over clients
  double window_s = 0;
  int64_t process_cpu_ns = 0;
  // Per slice of the window: committed transactions and process CPU.
  std::vector<uint64_t> slice_committed;
  std::vector<int64_t> slice_cpu_ns;
  std::vector<trace::TraceEvent> spans;  // tracer ring at the window end
  uint64_t window_open_us = 0;           // metrics::NowMicros() clock
  uint64_t dropped_spans = 0;
};

ClientTally Merge(std::vector<ClientTally>& tallies) {
  ClientTally t;
  for (ClientTally& c : tallies) {
    for (size_t k = 0; k < kParts; ++k) {
      t.read_us[k].insert(t.read_us[k].end(), c.read_us[k].begin(),
                          c.read_us[k].end());
      t.write_us[k].insert(t.write_us[k].end(), c.write_us[k].begin(),
                           c.write_us[k].end());
    }
    t.committed += c.committed;
    t.failed += c.failed;
    t.retries += c.retries;
    t.logic_runs += c.logic_runs;
    t.gets += c.gets;
    t.puts += c.puts;
    t.nexts += c.nexts;
    t.logic_self_ns += c.logic_self_ns;
    t.get_ns += c.get_ns;
    t.put_ns += c.put_ns;
    t.next_ns += c.next_ns;
    t.execute_cpu_ns += c.execute_cpu_ns;
    t.increments += c.increments;
  }
  return t;
}

struct PhaseOptions {
  double seconds = 0;
  uint64_t seed = 0;
  bool timers = false;
  bool reset_registry_at_window = false;
  bool inject_lost_update = false;
};

Phase RunPhase(const WorkloadConfig& cfg, Deployment& d,
               const PhaseOptions& po, CheckResult* check) {
  Harness harness(cfg.clients, po.timers, cfg.kind == Kind::kYcsb,
                  po.inject_lost_update);
  TimedSystem system(*d.system, harness);
  TimedWorkload workload(*d.workload, harness);

  const auto measure = milliseconds(static_cast<int64_t>(po.seconds * 1000));
  workloads::Driver::Options o;
  o.num_clients = cfg.clients;
  o.warmup = cfg.warmup;
  o.measure = measure;
  o.seed = po.seed;
  // The window is cut into slices; end-to-end rates are medians over
  // slices, so a burst of host noise moves one slice, not the result.
  const size_t slices = std::max<size_t>(1, measure / kSlice);
  o.timeline_resolution = kSlice;
  std::vector<int64_t> cpu(slices + 1, 0);  // process CPU at slice edges
  int64_t window_open_ns = 0;
  uint64_t window_open_us = 0;
  o.scheduled_actions.emplace_back(cfg.warmup, [&] {
    if (po.reset_registry_at_window) d.registry->ResetValues();
    cpu[0] = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    window_open_ns = NowNs();
    window_open_us = metrics::NowMicros();
    harness.window.Open(window_open_ns,
                        std::chrono::nanoseconds(measure).count());
  });
  for (size_t k = 1; k < slices; ++k) {
    o.scheduled_actions.emplace_back(cfg.warmup + k * kSlice, [&cpu, k] {
      cpu[k] = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    });
  }

  Phase phase;
  phase.report = workloads::Driver(o).Run(system, workload);
  cpu[slices] = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  phase.process_cpu_ns = cpu[slices] - cpu[0];
  phase.window_s = static_cast<double>(NowNs() - window_open_ns) / 1e9;
  phase.window_open_us = window_open_us;
  const size_t first = static_cast<size_t>(cfg.warmup / kSlice);
  for (size_t k = 0; k < slices; ++k) {
    const size_t b = first + k;
    phase.slice_committed.push_back(
        b < phase.report.timeline.size() ? phase.report.timeline[b] : 0);
    phase.slice_cpu_ns.push_back(cpu[k + 1] - cpu[k]);
  }
  if (trace::Tracer* tracer = d.system->tracer()) {
    // Snapshot before quiescing, so the ring ends with the window and not
    // with the appliers' drain.
    phase.spans = tracer->Snapshot();
    phase.dropped_spans = tracer->dropped();
  }
  phase.total = Merge(harness.tallies);
  CheckReplicas(*d.dynamast, harness.conserve, phase.total.increments, check);
  if (d.system->history() != nullptr) AuditHistory(d, check);
  return phase;
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("metric %-40s %14.6f %-10s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }

  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[96];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, vu] = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.12g", vu.first);
      out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + vu.second + "\"}";
    }
    return out + "}}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

std::string Samples(size_t n) { return "n=" + std::to_string(n); }

std::vector<double> Pooled(const PartSamples& parts) {
  std::vector<double> all;
  for (const std::vector<double>& v : parts) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// Median over sub-windows of the per-sub-window percentile; the note
// carries the smallest sub-window sample count and the pooled value.
void AddLatency(const std::string& name, const PartSamples& parts, double q,
                Report* r) {
  std::vector<double> per_part;
  size_t min_n = SIZE_MAX;
  std::string values;
  for (const std::vector<double>& v : parts) {
    per_part.push_back(Percentile(v, q));
    min_n = std::min(min_n, v.size());
    values += (values.empty() ? "" : ",") + std::to_string(per_part.back());
  }
  const std::vector<double> all = Pooled(parts);
  r->Add(name, Median(per_part), "us",
         "median of sub-windows " + values + " (each n>=" +
             std::to_string(min_n) + "); pooled " +
             std::to_string(Percentile(all, q)) + " " + Samples(all.size()));
}

void ReportEndToEnd(const Phase& p, const std::vector<double>& setups,
                    Report* r) {
  std::printf("driver: %s\n", p.report.Summary().c_str());
  const double slice_s = std::chrono::duration<double>(kSlice).count();
  std::vector<double> tps, per_cpu;
  std::string slices;
  for (size_t k = 0; k < p.slice_committed.size(); ++k) {
    const double committed = static_cast<double>(p.slice_committed[k]);
    tps.push_back(committed / slice_s);
    per_cpu.push_back(
        Ratio(committed, static_cast<double>(p.slice_cpu_ns[k]) / 1e9));
    slices += (slices.empty() ? "" : ",") + std::to_string(p.slice_committed[k]);
  }
  std::printf("slices: %zu x %.1f s, committed per slice: %s\n", tps.size(),
              slice_s, slices.c_str());
  r->Add("throughput_tps", Median(tps), "1/s",
         "median over slices; window mean " +
             std::to_string(p.report.Throughput()));
  AddLatency("read_p50_us", p.total.read_us, 0.50, r);
  AddLatency("read_p99_us", p.total.read_us, 0.99, r);
  AddLatency("write_p50_us", p.total.write_us, 0.50, r);
  AddLatency("write_p99_us", p.total.write_us, 0.99, r);
  r->Add("txn_per_cpu_s", Median(per_cpu), "txn/cpu-s",
         "median over slices; window mean " +
             std::to_string(Ratio(static_cast<double>(p.report.committed),
                                  static_cast<double>(p.process_cpu_ns) /
                                      1e9)));
  std::string all;
  for (double s : setups) all += (all.empty() ? "" : ",") + std::to_string(s);
  r->Add("setup_s", Median(setups), "s", "setups=" + all);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r->Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
}

// Summed counter over every site's series of a per-site family, with
// optional extra labels.
uint64_t SiteCounter(const metrics::Registry& reg, const std::string& name,
                     uint32_t sites, const metrics::Labels& extra = {}) {
  uint64_t sum = 0;
  for (uint32_t s = 0; s < sites; ++s) {
    metrics::Labels labels = extra;
    labels.emplace_back("site", std::to_string(s));
    sum += reg.CounterValue(name, labels);
  }
  return sum;
}

void SiteHistogram(const metrics::Registry& reg, const std::string& name,
                   uint32_t sites, LatencyRecorder* merged) {
  for (uint32_t s = 0; s < sites; ++s) {
    if (const LatencyRecorder* r =
            reg.HistogramRecorder(name, {{"site", std::to_string(s)}})) {
      merged->Merge(*r);
    }
  }
}

void ReportPerLayer(const WorkloadConfig& cfg, const Phase& a,
                    const metrics::Registry& reg, const Phase& b,
                    Report* r) {
  const ClientTally& t = a.total;
  const double txns = static_cast<double>(t.committed);
  const std::string window_note =
      "untraced phase, " + std::to_string(a.window_s) + " s window";

  // workloads: the generator and the stored-procedure bodies.
  r->Add("workloads.next_us",
         Ratio(static_cast<double>(t.next_ns) / 1e3,
               static_cast<double>(t.nexts)),
         "us", Samples(t.nexts));
  r->Add("workloads.logic_self_us",
         Ratio(static_cast<double>(t.logic_self_ns) / 1e3,
               static_cast<double>(t.logic_runs)),
         "us", Samples(t.logic_runs));
  r->Add("workloads.logic_runs_per_txn",
         Ratio(static_cast<double>(t.logic_runs), txns), "count");

  // core: the Execute call as a whole.
  r->Add("core.execute_cpu_us",
         Ratio(static_cast<double>(t.execute_cpu_ns) / 1e3,
               txns + static_cast<double>(t.failed)),
         "us", window_note);
  r->Add("core.background_cpu_us_per_txn",
         Ratio(static_cast<double>(a.process_cpu_ns - t.execute_cpu_ns) / 1e3,
               txns),
         "us");
  r->Add("core.retries_per_txn", Ratio(static_cast<double>(t.retries), txns),
         "count");
  r->Add("core.failed_share",
         Ratio(static_cast<double>(t.failed),
               txns + static_cast<double>(t.failed)),
         "ratio");

  // Registry families over the untraced window (reset at window open).
  const uint32_t n = cfg.sites;
  const double update_commits = static_cast<double>(
      SiteCounter(reg, "site_commits_total", n, {{"kind", "update"}}));
  const double remasters =
      static_cast<double>(reg.CounterValue("selector_remaster_total"));
  r->Add("selector.remaster_share", Ratio(remasters, update_commits), "ratio",
         "remasters=" + std::to_string(static_cast<uint64_t>(remasters)));
  r->Add("selector.partitions_moved_per_remaster",
         Ratio(static_cast<double>(
                   reg.CounterValue("selector_partitions_moved_total")),
               remasters),
         "count");
  r->Add("site.refresh_applied_per_commit",
         Ratio(static_cast<double>(
                   SiteCounter(reg, "site_refresh_applied_total", n)),
               update_commits),
         "count");
  LatencyRecorder delay;
  SiteHistogram(reg, "site_refresh_delay_us", n, &delay);
  r->Add("site.refresh_delay_us_p50", delay.PercentileMicros(0.50), "us",
         Samples(delay.count()));
  r->Add("site.refresh_delay_us_p99", delay.PercentileMicros(0.99), "us",
         Samples(delay.count()));
  LatencyRecorder chain;
  SiteHistogram(reg, "storage_version_chain_len", n, &chain);
  r->Add("storage.gets_per_txn", Ratio(static_cast<double>(t.gets), txns),
         "count");
  r->Add("storage.get_us",
         Ratio(static_cast<double>(t.get_ns) / 1e3,
               static_cast<double>(t.gets)),
         "us");
  r->Add("storage.puts_per_txn", Ratio(static_cast<double>(t.puts), txns),
         "count");
  r->Add("storage.put_us",
         Ratio(static_cast<double>(t.put_ns) / 1e3,
               static_cast<double>(t.puts)),
         "us");
  r->Add("storage.version_chain_len", chain.MeanMicros(), "count",
         "installs=" + std::to_string(chain.count()));
  r->Add("storage.pruned_per_write",
         Ratio(static_cast<double>(
                   SiteCounter(reg, "storage_pruned_versions_total", n)),
               static_cast<double>(chain.count())),
         "count");
  double bytes = 0;
  for (const char* cls : {"client_request", "propagation", "remastering"}) {
    r->Add(std::string("net.") + cls + ".msgs_per_txn",
           Ratio(static_cast<double>(reg.CounterValue(
                     "net_messages_total", {{"class", cls}})),
                 txns),
           "count");
    bytes += static_cast<double>(
        reg.CounterValue("net_bytes_total", {{"class", cls}}));
  }
  r->Add("net.bytes_per_txn", Ratio(bytes, txns), "bytes");

  // Spans of the traced phase: the tracer ring as it stood at the end of
  // the window, minus spans that began during warmup. Evicted spans are
  // counted, never used.
  std::map<std::string, std::vector<double>> spans;
  uint64_t first_ts = UINT64_MAX, last_ts = 0;
  size_t used = 0;
  for (const trace::TraceEvent& e : b.spans) {
    if (e.ph != 'X' || e.ts_us < b.window_open_us) continue;
    used++;
    spans[e.name].push_back(static_cast<double>(e.dur_us));
    first_ts = std::min(first_ts, e.ts_us);
    last_ts = std::max(last_ts, e.ts_us + e.dur_us);
  }
  const double span_window_s =
      last_ts > first_ts ? static_cast<double>(last_ts - first_ts) / 1e6 : 0;
  auto pct = [&](const char* metric, const char* span) {
    const std::vector<double>& v = spans[span];
    r->Add(std::string(metric) + "_p50", Percentile(v, 0.50), "us",
           Samples(v.size()));
    r->Add(std::string(metric) + "_p99", Percentile(v, 0.99), "us",
           Samples(v.size()));
  };
  auto mean = [&](const char* metric, const char* span) {
    const std::vector<double>& v = spans[span];
    r->Add(metric, Mean(v), "us", Samples(v.size()));
  };
  pct("core.route_us", "route");
  pct("selector.route_decide_us", "route_decide");
  mean("site.release_us", "release");
  mean("site.grant_us", "grant");
  pct("site.admission_wait_us", "admission");
  pct("site.begin_us", "begin");
  pct("site.vv_wait_us", "vv_wait");
  pct("site.lock_wait_us", "lock_wait");
  pct("site.commit_us", "commit");
  mean("site.refresh_apply_us", "replicate");

  r->Add("trace.spans", static_cast<double>(used), "count",
         "in the window, of " + std::to_string(b.spans.size()) + " in the ring");
  r->Add("trace.dropped_spans", static_cast<double>(b.dropped_spans), "count",
         "evicted from the ring before the window ended");
  r->Add("trace.window_s", span_window_s, "s",
         "span-derived metrics cover the last " +
             std::to_string(span_window_s) + " s of the traced phase");
  r->Add("trace.overhead_share",
         1.0 - Ratio(b.report.Throughput(), a.report.Throughput()), "ratio",
         "traced " + std::to_string(b.report.Throughput()) + " vs untraced " +
             std::to_string(a.report.Throughput()) + " txn/s");
}

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void PrintChecks(const CheckResult& check) {
  for (const std::string& line : check.lines) std::printf("%s\n", line.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--inject-lost-update]\nworkloads:",
               argv0);
  for (const WorkloadConfig& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  long long seed = -1;
  double seconds = 0;
  int trace_flag = -1;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace_flag = std::atoi(argv[++i]);
    } else if (arg == "--inject-lost-update") {
      inject = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const WorkloadConfig* cfg = FindWorkload(workload_name);
  if (cfg == nullptr || seed < 0 || seconds <= 0 || seconds > 120 ||
      (trace_flag != 0 && trace_flag != 1)) {
    return Usage(argv[0]);
  }

  const unsigned nproc = Nproc();
  const uint32_t appliers = cfg->sites * (cfg->sites - 1);
  std::printf("perfbench workload=%s seed=%lld seconds=%g trace=%d\n",
              cfg->name, seed, seconds, trace_flag);
  std::printf("config: %s\n", DescribeConfig(*cfg).c_str());
  std::printf("threads: nproc=%u client_threads=%u applier_threads=%u "
              "(sites*(sites-1)) busy_total=%u\n",
              nproc, cfg->clients, appliers, cfg->clients + appliers);
  if (cfg->clients > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: %u client threads exceed nproc=%u\n",
                 cfg->name, cfg->clients, nproc);
    return 2;
  }

  CheckResult check;
  Report report;
  uint64_t attempted = 0, failed = 0;
  PhaseOptions po;
  po.seed = static_cast<uint64_t>(seed);
  po.inject_lost_update = inject;
  if (trace_flag == 0) {
    // Set up several times and report the median; the last deployment is
    // the one measured.
    constexpr int kSetups = 5;
    std::vector<double> setups;
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetups; ++i) {
      d.reset();
      d = SetUp(*cfg, po.seed, /*traced=*/false);
      setups.push_back(d->setup_s);
    }
    po.seconds = seconds;
    const Phase p = RunPhase(*cfg, *d, po, &check);
    d->system->Shutdown();
    PrintChecks(check);
    ReportEndToEnd(p, setups, &report);
    attempted = p.report.committed + p.report.errors;
    failed = p.report.errors;
  } else {
    // The window is split: an untraced phase (harness timers + registry)
    // and a traced phase (spans + history) of at most max_traced_s; the
    // throughput ratio of the two is the tracing overhead.
    const double traced_s = cfg->max_traced_s > 0
                                ? std::min(seconds / 2, cfg->max_traced_s)
                                : seconds / 2;
    po.seconds = seconds - traced_s;
    po.timers = true;
    po.reset_registry_at_window = true;
    std::unique_ptr<Deployment> da = SetUp(*cfg, po.seed, /*traced=*/false);
    const Phase a = RunPhase(*cfg, *da, po, &check);
    // Free phase A's system (its logs hold every record) before phase B;
    // its registry stays for the report.
    da->system.reset();
    po.seconds = traced_s;
    po.reset_registry_at_window = false;  // reconciliation needs whole run
    po.inject_lost_update = false;
    std::unique_ptr<Deployment> db = SetUp(*cfg, po.seed, /*traced=*/true);
    const Phase b = RunPhase(*cfg, *db, po, &check);
    db->system->Shutdown();
    PrintChecks(check);
    ReportPerLayer(*cfg, a, *da->registry, b, &report);
    attempted = a.report.committed + a.report.errors + b.report.committed +
                b.report.errors;
    failed = a.report.errors + b.report.errors;
  }
  if (!check.ok) std::printf("correctness gate FAILED\n");
  std::printf("%s\n", report.Json(check.ok, attempted, failed).c_str());
  std::fflush(stdout);
  return check.ok ? 0 : 1;
}

}  // namespace
}  // namespace dynamast::perfbench

int main(int argc, char** argv) {
  return dynamast::perfbench::Main(argc, argv);
}
