#ifndef DYNAMAST_CORE_CLUSTER_H_
#define DYNAMAST_CORE_CLUSTER_H_

#include <memory>
#include <thread>
#include <vector>

#include "common/history.h"
#include "common/key.h"
#include "common/metrics.h"
#include "common/partitioner.h"
#include "common/trace.h"
#include "log/durable_log.h"
#include "net/sim_network.h"
#include "site/site_manager.h"

namespace dynamast::core {

/// Cluster owns the shared substrate of one deployment: the simulated
/// network, the per-site durable log topics, the partitioner, and the data
/// sites themselves. A replicated cluster also runs the log cleaner: one
/// background thread that checkpoints the logs whenever an append fills a
/// segment, so log memory is bounded by the working set, not run length.
/// Systems (DynaMast and baselines) are built on top of a Cluster; tests
/// and benchmarks construct one Cluster per system under test so
/// substrate state is never shared across systems.
class Cluster {
 public:
  struct Options {
    uint32_t num_sites = 4;
    net::SimulatedNetwork::Options network;
    site::SiteOptions site;  // site_id/num_sites are filled per site
    /// If false, sites do not run refresh appliers (partition-store and
    /// LEAP keep no replicas).
    bool replicated = true;
    /// If true, every site records transaction/marker history into a
    /// shared history::Recorder for the offline SI auditor
    /// (tools/si_checker).
    bool record_history = false;
    /// Metrics registry the cluster exports into. Null means the
    /// process-wide metrics::Registry::Global(); tests pass their own
    /// registry for isolation.
    metrics::Registry* metrics = nullptr;
    /// If true, the cluster owns a trace::Tracer and every site / the
    /// selector records per-transaction spans into it (Chrome trace-event
    /// export). Off by default: tracing is strictly opt-in so the hot path
    /// stays free of it.
    bool trace = false;
  };

  /// `partitioner` must outlive the cluster.
  Cluster(const Options& options, const Partitioner* partitioner);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts refresh appliers and the log cleaner (no-op for unreplicated
  /// clusters: with no peer applying their topics, the cut never
  /// advances, so their logs keep every record).
  void Start();

  /// Closes logs and stops all sites. Idempotent.
  void Stop();

  uint32_t num_sites() const { return options_.num_sites; }
  const Options& options() const { return options_; }
  net::SimulatedNetwork& network() { return network_; }
  log::LogManager& logs() { return logs_; }
  const Partitioner& partitioner() const { return *partitioner_; }

  site::SiteManager* site(SiteId id) { return sites_[id].get(); }
  std::vector<site::SiteManager*> site_pointers();

  /// Null unless Options::record_history was set.
  history::Recorder* history() { return history_.get(); }

  /// The resolved metrics registry (never null).
  metrics::Registry* metrics() { return metrics_; }

  /// Null unless Options::trace was set.
  trace::Tracer* tracer() { return tracer_.get(); }

  /// Creates a table at every site.
  Status CreateTable(TableId id);

  /// Checkpoints the logs at the component-wise minimum of every site's
  /// svv: a consistent cut that every applier has passed. The log cleaner
  /// calls this; tests call it to place a checkpoint deterministically.
  Status CheckpointLogs();

 private:
  void CleanerLoop();

  Options options_;
  const Partitioner* partitioner_;
  net::SimulatedNetwork network_;
  log::LogManager logs_;
  metrics::Registry* metrics_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<history::Recorder> history_;
  std::vector<std::unique_ptr<site::SiteManager>> sites_;
  std::thread cleaner_;
  bool stopped_ = false;
};

}  // namespace dynamast::core

#endif  // DYNAMAST_CORE_CLUSTER_H_
