#include "log/checkpoint.h"

#include "log/durable_log.h"

namespace dynamast::log {

OwnerTransform::OwnerTransform(size_t num_sites) : owner_if_(num_sites + 1) {
  for (size_t s = 0; s < num_sites; ++s) {
    owner_if_[s] = static_cast<SiteId>(s);
  }
  owner_if_[num_sites] = kInvalidSite;
}

void OwnerTransform::ApplyGrant(SiteId origin) {
  for (SiteId& owner : owner_if_) owner = origin;
}

void OwnerTransform::ApplyRelease(SiteId origin, SiteId peer) {
  for (SiteId& owner : owner_if_) {
    if (owner == origin) owner = peer;
  }
}

SiteId OwnerTransform::Resolve(SiteId initial) const {
  const size_t other = owner_if_.size() - 1;
  return owner_if_[initial < other ? initial : other];
}

void LogCut::ApplyMarker(const LogRecord& record) {
  if (record.type == LogRecord::Type::kUpdate) return;
  for (PartitionId p : record.partitions) {
    OwnerTransform& owner =
        owners.try_emplace(p, svv.size()).first->second;
    if (record.type == LogRecord::Type::kRelease) {
      // A release marker names its intended recipient, so mastership moves
      // to the peer immediately: if a crash hit between the release and
      // the grant, every recovering site still converges on exactly one
      // master (the recipient) instead of leaving the partition masterless.
      // A following grant marker (the common case) re-asserts the owner.
      owner.ApplyRelease(record.origin, record.transfer_peer);
    } else {
      owner.ApplyGrant(record.origin);
    }
  }
}

void LogCut::ResolveMasters(
    std::unordered_map<PartitionId, SiteId>* masters) const {
  for (const auto& [p, transform] : owners) {
    auto it = masters->find(p);
    const SiteId owner =
        transform.Resolve(it == masters->end() ? kInvalidSite : it->second);
    if (owner != kInvalidSite) (*masters)[p] = owner;
  }
}

bool Eq1Applicable(const LogRecord& record, const VersionVector& svv) {
  const SiteId origin = record.origin;
  if (record.tvv.size() != svv.size() || origin >= svv.size()) return false;
  if (svv[origin] + 1 != record.tvv[origin]) return false;
  for (size_t k = 0; k < svv.size(); ++k) {
    if (k != origin && svv[k] < record.tvv[k]) return false;
  }
  return true;
}

Status FoldLogs(const LogManager& logs, const VersionVector* limit,
                LogCut* cut, const std::function<void(LogRecord&)>& apply,
                uint64_t* folded) {
  std::string raw;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (SiteId origin = 0; origin < logs.num_sites(); ++origin) {
      while (limit == nullptr || cut->svv[origin] < (*limit)[origin]) {
        Status s = logs.TopicFor(origin)->TryRead(cut->offsets[origin], &raw);
        if (s.IsNotFound()) break;
        if (!s.ok()) return s;
        LogRecord record;
        s = LogRecord::Deserialize(raw, &record);
        if (!s.ok()) return s;
        if (record.origin != origin) {
          return Status::Corruption("record origin differs from its topic");
        }
        // Revisit this origin next sweep, once its dependencies are in.
        if (!Eq1Applicable(record, cut->svv)) break;
        const uint64_t seq = record.tvv[origin];
        cut->ApplyMarker(record);
        apply(record);
        cut->svv[origin] = seq;
        cut->offsets[origin]++;
        if (folded != nullptr) ++*folded;
        progressed = true;
      }
    }
  }
  return Status::OK();
}

}  // namespace dynamast::log
