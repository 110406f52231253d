#ifndef DYNAMAST_STORAGE_STORAGE_ENGINE_H_
#define DYNAMAST_STORAGE_STORAGE_ENGINE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"
#include "storage/lock_manager.h"
#include "storage/table.h"

namespace dynamast::storage {

/// StorageEngine is one data site's in-memory multi-version store: a set of
/// tables plus the record write-lock manager. It is deliberately free of
/// any replication or mastership logic — those live in site::SiteManager —
/// so the same engine backs DynaMast and every baseline system.
class StorageEngine {
 public:
  struct Options {
    /// Versions retained per record ("by default four, as determined
    /// empirically", Section V-A1).
    size_t max_versions_per_record = 4;
  };

  StorageEngine() : StorageEngine(Options{}) {}
  explicit StorageEngine(const Options& options) : options_(options) {}

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Creates a table; AlreadyExists if the id is taken.
  Status CreateTable(TableId id);

  /// Nullptr if the table does not exist.
  Table* GetTable(TableId id) const;

  /// Installs a committed version for `key` (used by local commits and by
  /// refresh application). InvalidArgument if the table does not exist.
  /// `stats` (when non-null) receives the install outcome for metrics.
  Status Install(const RecordKey& key, SiteId origin, uint64_t seq,
                 std::string_view value, InstallStats* stats = nullptr);

  /// Snapshot read at `snapshot` (a version vector). On OK, `observed`
  /// (when non-null) receives the stamp of the version returned.
  Status Read(const RecordKey& key, const VersionVector& snapshot,
              std::string* out, VersionStamp* observed = nullptr) const;

  Status ReadLatest(const RecordKey& key, std::string* out) const;

  bool Contains(const RecordKey& key) const;

  LockManager& lock_manager() { return lock_manager_; }

  /// Total rows across all tables (diagnostics / tests).
  size_t TotalRows() const;

  std::vector<TableId> TableIds() const;

 private:
  Options options_;
  // Guards the table map, not table contents. Reader-writer: table lookup
  // is on every operation's path, table creation happens only at load.
  mutable DebugSharedMutex tables_mu_{"storage.tables"};
  std::unordered_map<TableId, std::unique_ptr<Table>> tables_
      DYNAMAST_GUARDED_BY(tables_mu_);
  LockManager lock_manager_;
};

}  // namespace dynamast::storage

#endif  // DYNAMAST_STORAGE_STORAGE_ENGINE_H_
