#include "common/sched_trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dynamast::sched {

namespace {

// Thread names and lock labels are path-like identifiers; escape the few
// characters that would break the whitespace-delimited trace grammar.
std::string EscapeToken(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == ' ' || c == '\n' || c == '\t' || c == '%' || c == '\0') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  if (out.empty()) out = "%00";
  return out;
}

std::string UnescapeToken(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        const char c = static_cast<char>(hi * 16 + lo);
        if (c != '\0') out += c;
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMutexLock:
      return "lock";
    case OpKind::kMutexUnlock:
      return "unlock";
    case OpKind::kMutexLockShared:
      return "lock_shared";
    case OpKind::kMutexUnlockShared:
      return "unlock_shared";
    case OpKind::kNetDeliver:
      return "net.deliver";
    case OpKind::kGateGrant:
      return "gate.grant";
    case OpKind::kLogAppend:
      return "log.append";
    case OpKind::kMarker:
      return "marker";
    case OpKind::kLogRead:
      return "log.read";
  }
  return "?";
}

bool AcquireLike(OpKind kind) {
  return kind == OpKind::kMutexLock || kind == OpKind::kMutexLockShared;
}

bool OpsConflict(OpKind a, OpKind b) {
  // On one object, the commuting pairs are two shared acquisitions
  // (reader-reader) and two durable-log reads (two subscribers of one
  // topic). Shared releases are kept ordered: the scheduler serializes
  // them anyway, and treating them as dependent keeps the happens-before
  // relation a superset of the true dependency relation (sound for DPOR:
  // at worst we explore a few redundant schedules).
  if (a == OpKind::kLogRead && b == OpKind::kLogRead) return false;
  return !(a == OpKind::kMutexLockShared && b == OpKind::kMutexLockShared);
}

std::string TraceObject::Key() const {
  std::ostringstream os;
  os << EscapeToken(label) << '|' << EscapeToken(birth_thread) << '|'
     << birth_index;
  return os.str();
}

std::string Trace::Serialize() const {
  std::ostringstream os;
  os << "# dynamast scheduler trace v1\n";
  os << "seed " << seed << '\n';
  for (const auto& [k, v] : meta) {
    os << "meta " << EscapeToken(k) << ' ' << EscapeToken(v) << '\n';
  }
  for (size_t i = 0; i < threads.size(); ++i) {
    os << "thread " << i << ' ' << EscapeToken(threads[i]) << '\n';
  }
  for (size_t i = 0; i < objects.size(); ++i) {
    const TraceObject& o = objects[i];
    os << "object " << i << ' ' << EscapeToken(o.label) << ' '
       << EscapeToken(o.birth_thread) << ' ' << o.birth_index << '\n';
  }
  for (const TraceEntry& e : entries) {
    os << "e " << e.thread << ' ' << static_cast<unsigned>(e.kind) << ' '
       << e.object << '\n';
  }
  return os.str();
}

Status Trace::Parse(std::string_view text, Trace* out) {
  *out = Trace{};
  std::istringstream is{std::string(text)};
  std::string line;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    auto bad = [&](const char* why) {
      return Status::Corruption("trace line " + std::to_string(lineno) + ": " +
                                why);
    };
    if (tag == "seed") {
      if (!(ls >> out->seed)) return bad("malformed seed");
    } else if (tag == "meta") {
      std::string k, v;
      if (!(ls >> k)) return bad("malformed meta");
      if (!(ls >> v)) v.clear();
      out->meta[UnescapeToken(k)] = UnescapeToken(v);
    } else if (tag == "thread") {
      size_t idx = 0;
      std::string name;
      if (!(ls >> idx >> name)) return bad("malformed thread");
      if (idx != out->threads.size()) return bad("thread index out of order");
      out->threads.push_back(UnescapeToken(name));
    } else if (tag == "object") {
      size_t idx = 0;
      TraceObject o;
      std::string label, birth;
      if (!(ls >> idx >> label >> birth >> o.birth_index)) {
        return bad("malformed object");
      }
      if (idx != out->objects.size()) return bad("object index out of order");
      o.label = UnescapeToken(label);
      o.birth_thread = UnescapeToken(birth);
      out->objects.push_back(std::move(o));
    } else if (tag == "e") {
      TraceEntry e;
      unsigned kind = 0;
      if (!(ls >> e.thread >> kind >> e.object)) return bad("malformed entry");
      if (kind >= kNumOpKinds) return bad("unknown op kind");
      if (e.thread >= out->threads.size()) return bad("entry thread unknown");
      if (e.object >= out->objects.size()) return bad("entry object unknown");
      e.kind = static_cast<OpKind>(kind);
      out->entries.push_back(e);
    } else {
      return bad("unknown tag");
    }
  }
  return Status::OK();
}

Status Trace::DumpToFile(const std::string& path) const {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) return Status::Unavailable("cannot open trace file " + path);
  f << Serialize();
  f.flush();
  if (!f) return Status::Unavailable("failed writing trace file " + path);
  return Status::OK();
}

Status Trace::LoadFromFile(const std::string& path, Trace* out) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open trace file " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return Parse(buf.str(), out);
}

}  // namespace dynamast::sched
