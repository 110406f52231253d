#include "core/cluster.h"

#include <string>

#include "common/invariant_checker.h"
#include "common/scheduler.h"

namespace dynamast::core {

Cluster::Cluster(const Options& options, const Partitioner* partitioner)
    : options_(options),
      partitioner_(partitioner),
      network_(options.network),
      logs_(options.num_sites),
      metrics_(metrics::Registry::OrGlobal(options.metrics)) {
  if (options_.trace) {
    tracer_ = std::make_unique<trace::Tracer>();
    for (uint32_t i = 0; i < options_.num_sites; ++i) {
      tracer_->SetProcessName(i, "site" + std::to_string(i));
    }
    tracer_->SetProcessName(options_.num_sites, "selector");
  }
  if (options_.record_history) {
    history_ = std::make_unique<history::Recorder>();
  }
  network_.RegisterMetrics(metrics_);
  logs_.RegisterMetrics(metrics_);
  for (uint32_t i = 0; i < options_.num_sites; ++i) {
    site::SiteOptions site_options = options_.site;
    site_options.site_id = i;
    site_options.num_sites = options_.num_sites;
    sites_.push_back(std::make_unique<site::SiteManager>(
        site_options, partitioner_, &logs_, &network_, history_.get(),
        metrics_, tracer_.get()));
  }
}

Cluster::~Cluster() { Stop(); }

void Cluster::Start() {
  if (!options_.replicated || cleaner_.joinable()) return;
  for (auto& s : sites_) s->Start();
  cleaner_ = std::thread([this] {
    sched::ThreadGuard sched_guard("log/cleaner");
    CleanerLoop();
  });
}

void Cluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  logs_.CloseAll();  // also ends the cleaner's wait
  {
    sched::ScopedBlocked blocked;
    if (cleaner_.joinable()) cleaner_.join();
  }
  for (auto& s : sites_) s->Stop();
}

void Cluster::CleanerLoop() {
  while (true) {
    bool woken;
    {
      // The wait is outside the scheduler's arbitration.
      sched::ScopedBlocked blocked;
      woken = logs_.WaitForFullSegment();
    }
    if (!woken) return;
    const Status s = CheckpointLogs();
    DYNAMAST_INVARIANT(s.ok(), "log checkpoint failed: " + s.ToString());
    (void)s;
  }
}

Status Cluster::CheckpointLogs() {
  VersionVector cut = sites_[0]->CurrentVersion();
  for (size_t i = 1; i < sites_.size(); ++i) {
    const VersionVector svv = sites_[i]->CurrentVersion();
    for (size_t k = 0; k < cut.size(); ++k) {
      if (svv[k] < cut[k]) cut[k] = svv[k];
    }
  }
  return logs_.Checkpoint(cut);
}

std::vector<site::SiteManager*> Cluster::site_pointers() {
  std::vector<site::SiteManager*> out;
  out.reserve(sites_.size());
  for (auto& s : sites_) out.push_back(s.get());
  return out;
}

Status Cluster::CreateTable(TableId id) {
  for (auto& s : sites_) {
    Status status = s->CreateTable(id);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace dynamast::core
