#include "serve/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "serve/wal.h"
#include "util/failpoint.h"

namespace glp::serve {
namespace {

constexpr uint64_t kMagic = 0x31544b5043504c47ULL;  // "GLPCPKT1" LE
// v2 appends the incremental-serving anchor arrays (flag bit 4); v3
// appends the WAL position (wal_seq, wal_epoch). Older files still load,
// with the newer fields defaulted.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;

/// FNV-1a over the serialized payload — corruption detection, not crypto.
class Checksum {
 public:
  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t Value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}

  bool Raw(const void* data, size_t n) {
    sum_.Update(data, n);
    return std::fwrite(data, 1, n, f_) == n;
  }
  template <typename T>
  bool Pod(const T& v) {
    return Raw(&v, sizeof(T));
  }
  template <typename T>
  bool Vec(const std::vector<T>& v) {
    const uint64_t n = v.size();
    if (!Pod(n)) return false;
    return v.empty() || Raw(v.data(), v.size() * sizeof(T));
  }
  uint64_t checksum() const { return sum_.Value(); }

 private:
  std::FILE* f_;
  Checksum sum_;
};

class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {}

  bool Raw(void* data, size_t n) {
    if (std::fread(data, 1, n, f_) != n) return false;
    sum_.Update(data, n);
    return true;
  }
  template <typename T>
  bool Pod(T* v) {
    return Raw(v, sizeof(T));
  }
  template <typename T>
  bool Vec(std::vector<T>* v, uint64_t max_elems) {
    uint64_t n = 0;
    if (!Pod(&n) || n > max_elems) return false;
    v->resize(n);
    return n == 0 || Raw(v->data(), n * sizeof(T));
  }
  uint64_t checksum() const { return sum_.Value(); }

 private:
  std::FILE* f_;
  Checksum sum_;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Sanity bound on deserialized element counts: a corrupt length field must
// not drive a multi-terabyte resize before the checksum gets a chance to
// reject the file.
constexpr uint64_t kMaxElems = uint64_t{1} << 36;

}  // namespace

std::string CheckpointFileName(int64_t tick) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "checkpoint-%012lld.ckpt",
                static_cast<long long>(tick));
  return buf;
}

Status SaveCheckpoint(const std::string& path, const CheckpointData& data) {
  GLP_FAILPOINT("serve.checkpoint");
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (f == nullptr) {
      return Status::IoError("cannot open checkpoint temp file " + tmp);
    }
    Writer w(f.get());
    bool ok = w.Pod(kMagic) && w.Pod(kVersion);
    const uint32_t flags = (data.tick_schedule_primed ? 1u : 0u) |
                           (data.have_prev ? 2u : 0u) |
                           (data.has_incremental ? 4u : 0u);
    ok = ok && w.Pod(flags) && w.Pod(data.tick) &&
         w.Pod(data.next_tick_end) && w.Pod(data.ingested_max_time) &&
         w.Vec(data.edges) && w.Vec(data.prev_l2g) &&
         w.Vec(data.prev_labels);
    const uint64_t num_clusters = data.prev_confirmed.size();
    ok = ok && w.Pod(num_clusters);
    for (const auto& members : data.prev_confirmed) {
      ok = ok && w.Vec(members);
    }
    ok = ok && w.Vec(data.inc_entities) && w.Vec(data.inc_anchors);
    ok = ok && w.Pod(data.wal_seq) && w.Pod(data.wal_epoch);
    // Checksum trailer (over everything before it).
    const uint64_t sum = w.checksum();
    ok = ok && std::fwrite(&sum, 1, sizeof(sum), f.get()) == sizeof(sum);
    ok = ok && std::fflush(f.get()) == 0;
    if (!ok) {
      std::remove(tmp.c_str());
      return Status::IoError("short write to checkpoint temp file " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename checkpoint into place: " +
                           ec.message());
  }
  return Status::OK();
}

Result<CheckpointData> LoadCheckpoint(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open checkpoint " + path);
  }
  Reader r(f.get());
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!r.Pod(&magic) || magic != kMagic) {
    return Status::IoError("not a GLP checkpoint: " + path);
  }
  if (!r.Pod(&version) || version < kMinVersion || version > kVersion) {
    return Status::IoError("unsupported checkpoint version in " + path);
  }
  CheckpointData data;
  uint32_t flags = 0;
  bool ok = r.Pod(&flags) && r.Pod(&data.tick) && r.Pod(&data.next_tick_end) &&
            r.Pod(&data.ingested_max_time) && r.Vec(&data.edges, kMaxElems) &&
            r.Vec(&data.prev_l2g, kMaxElems) &&
            r.Vec(&data.prev_labels, kMaxElems);
  uint64_t num_clusters = 0;
  ok = ok && r.Pod(&num_clusters) && num_clusters <= kMaxElems;
  if (ok) {
    data.prev_confirmed.resize(num_clusters);
    for (auto& members : data.prev_confirmed) {
      ok = ok && r.Vec(&members, kMaxElems);
      if (!ok) break;
    }
  }
  if (version >= 2) {
    ok = ok && r.Vec(&data.inc_entities, kMaxElems) &&
         r.Vec(&data.inc_anchors, kMaxElems);
  }
  if (version >= 3) {
    ok = ok && r.Pod(&data.wal_seq) && r.Pod(&data.wal_epoch);
  }
  if (!ok) {
    return Status::IoError("truncated or corrupt checkpoint " + path);
  }
  const uint64_t want = r.checksum();
  uint64_t got = 0;
  if (std::fread(&got, 1, sizeof(got), f.get()) != sizeof(got) ||
      got != want) {
    return Status::IoError("checksum mismatch in checkpoint " + path);
  }
  data.tick_schedule_primed = (flags & 1u) != 0;
  data.have_prev = (flags & 2u) != 0;
  data.has_incremental = (flags & 4u) != 0;
  if (data.prev_labels.size() != data.prev_l2g.size()) {
    return Status::IoError("inconsistent warm state in checkpoint " + path);
  }
  if (data.inc_anchors.size() != data.inc_entities.size()) {
    return Status::IoError("inconsistent incremental state in checkpoint " +
                           path);
  }
  return data;
}

Result<std::string> LatestCheckpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list checkpoint dir " + dir + ": " +
                           ec.message());
  }
  std::vector<std::string> candidates;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
      candidates.push_back(entry.path().string());
    }
  }
  // Tick-descending (zero-padded names sort lexicographically); first one
  // that validates wins, so a torn newest file falls back gracefully.
  std::sort(candidates.rbegin(), candidates.rend());
  for (const std::string& path : candidates) {
    if (LoadCheckpoint(path).ok()) return path;
  }
  return Status::NotFound("no loadable checkpoint in " + dir);
}

// ---------------------------------------------------------------------------
// Sharded-fleet checkpoints
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kManifestMagic = 0x3130464d53504c47ULL;  // "GLPSMF01" LE
// v2 appends the fencing epoch; v3 appends the partition map (version +
// override table). Older manifests load with epoch 0 and the default hash
// map at version 1.
constexpr uint32_t kManifestVersion = 3;
constexpr uint32_t kMinManifestVersion = 1;

bool WriteString(Writer* w, const std::string& s) {
  const uint64_t n = s.size();
  return w->Pod(n) && (s.empty() || w->Raw(s.data(), s.size()));
}

bool ReadString(Reader* r, std::string* s) {
  uint64_t n = 0;
  if (!r->Pod(&n) || n > 4096) return false;
  s->resize(n);
  return n == 0 || r->Raw(s->data(), n);
}

/// Tick encoded in a sharded-checkpoint filename ("...-%012lld.<ext>");
/// -1 when the name does not parse.
int64_t TickOfFileName(const std::string& name) {
  const size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot < 12) return -1;
  const std::string digits = name.substr(dot - 12, 12);
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
  }
  return std::strtoll(digits.c_str(), nullptr, 10);
}

}  // namespace

std::string ShardManifestFileName(int64_t tick) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "manifest-%012lld.smf",
                static_cast<long long>(tick));
  return buf;
}

std::string ShardCheckpointFileName(int shard, int64_t tick) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%03d-%012lld.ckpt", shard,
                static_cast<long long>(tick));
  return buf;
}

std::string CoordCheckpointFileName(int64_t tick) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "coord-%012lld.ckpt",
                static_cast<long long>(tick));
  return buf;
}

Status SaveShardManifest(const std::string& path, const ShardManifest& m) {
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (f == nullptr) {
      return Status::IoError("cannot open manifest temp file " + tmp);
    }
    Writer w(f.get());
    bool ok = w.Pod(kManifestMagic) && w.Pod(kManifestVersion) &&
              w.Pod(m.tick) && w.Pod(static_cast<int32_t>(m.num_shards)) &&
              w.Pod(m.epoch) && WriteString(&w, m.coord_file);
    const uint64_t n = m.shard_files.size();
    ok = ok && w.Pod(n);
    for (const std::string& s : m.shard_files) {
      ok = ok && WriteString(&w, s);
    }
    ok = ok && w.Pod(m.map_version) && w.Vec(m.map_override_keys) &&
         w.Vec(m.map_override_parts);
    const uint64_t sum = w.checksum();
    ok = ok && std::fwrite(&sum, 1, sizeof(sum), f.get()) == sizeof(sum);
    ok = ok && std::fflush(f.get()) == 0;
    if (!ok) {
      std::remove(tmp.c_str());
      return Status::IoError("short write to manifest temp file " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename manifest into place: " +
                           ec.message());
  }
  return Status::OK();
}

Result<ShardManifest> LoadShardManifest(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open manifest " + path);
  }
  Reader r(f.get());
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!r.Pod(&magic) || magic != kManifestMagic) {
    return Status::IoError("not a GLP shard manifest: " + path);
  }
  if (!r.Pod(&version) || version < kMinManifestVersion ||
      version > kManifestVersion) {
    return Status::IoError("unsupported manifest version in " + path);
  }
  ShardManifest m;
  int32_t num_shards = 0;
  uint64_t n = 0;
  bool ok = r.Pod(&m.tick) && r.Pod(&num_shards);
  if (version >= 2) ok = ok && r.Pod(&m.epoch);
  ok = ok && ReadString(&r, &m.coord_file) && r.Pod(&n) && n <= 4096;
  if (ok) {
    m.num_shards = num_shards;
    m.shard_files.resize(n);
    for (std::string& s : m.shard_files) {
      ok = ok && ReadString(&r, &s);
      if (!ok) break;
    }
  }
  if (version >= 3) {
    ok = ok && r.Pod(&m.map_version) &&
         r.Vec(&m.map_override_keys, kMaxElems) &&
         r.Vec(&m.map_override_parts, kMaxElems);
  }
  if (!ok) {
    return Status::IoError("truncated or corrupt manifest " + path);
  }
  const uint64_t want = r.checksum();
  uint64_t got = 0;
  if (std::fread(&got, 1, sizeof(got), f.get()) != sizeof(got) ||
      got != want) {
    return Status::IoError("checksum mismatch in manifest " + path);
  }
  if (m.num_shards <= 0 ||
      m.shard_files.size() != static_cast<size_t>(m.num_shards)) {
    return Status::IoError("inconsistent shard count in manifest " + path);
  }
  if (m.map_version == 0 ||
      m.map_override_keys.size() != m.map_override_parts.size()) {
    return Status::IoError("inconsistent partition map in manifest " + path);
  }
  return m;
}

pipeline::PartitionMap ShardManifest::PartitionMapOf() const {
  pipeline::PartitionMap map(num_shards, map_version);
  if (!map_override_keys.empty()) {
    map.SetOverrides(map_override_keys, map_override_parts);
  }
  return map;
}

Result<ShardedCheckpoint> LoadShardedCheckpoint(
    const std::string& manifest_path) {
  ShardedCheckpoint out;
  GLP_ASSIGN_OR_RETURN(out.manifest, LoadShardManifest(manifest_path));
  const std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  auto resolve = [&dir](const std::string& name) {
    return dir.empty() ? name : dir + "/" + name;
  };
  GLP_ASSIGN_OR_RETURN(out.coord,
                       LoadCheckpoint(resolve(out.manifest.coord_file)));
  out.shards.reserve(out.manifest.shard_files.size());
  for (const std::string& name : out.manifest.shard_files) {
    CheckpointData shard;
    GLP_ASSIGN_OR_RETURN(shard, LoadCheckpoint(resolve(name)));
    out.shards.push_back(std::move(shard));
  }
  return out;
}

Result<ShardedCheckpoint> LatestShardedCheckpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list checkpoint dir " + dir + ": " +
                           ec.message());
  }
  std::vector<std::string> manifests;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest-", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".smf") {
      manifests.push_back(entry.path().string());
    }
  }
  std::sort(manifests.rbegin(), manifests.rend());
  for (const std::string& path : manifests) {
    auto loaded = LoadShardedCheckpoint(path);
    if (loaded.ok()) return loaded;
  }
  return Status::NotFound("no fully loadable sharded checkpoint in " + dir);
}

Status PruneShardCheckpoints(const std::string& dir, int keep) {
  return PruneShardCheckpoints(dir, keep, /*wal_dir=*/"");
}

Status PruneShardCheckpoints(const std::string& dir, int keep,
                             const std::string& wal_dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list checkpoint dir " + dir + ": " +
                           ec.message());
  }
  // Manifests newest first; the first `keep` that load completely are kept,
  // and every manifest/shard/coord file whose tick is not among them goes.
  std::vector<std::pair<int64_t, std::string>> manifests;  // (tick, path)
  std::vector<std::pair<int64_t, std::string>> members;    // (tick, path)
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    const int64_t tick = TickOfFileName(name);
    if (tick < 0) continue;
    if (name.rfind("manifest-", 0) == 0) {
      manifests.emplace_back(tick, entry.path().string());
      members.emplace_back(tick, entry.path().string());
    } else if (name.rfind("shard-", 0) == 0 ||
               name.rfind("coord-", 0) == 0) {
      members.emplace_back(tick, entry.path().string());
    }
  }
  std::sort(manifests.rbegin(), manifests.rend());
  size_t effective_keep = static_cast<size_t>(std::max(keep, 0));
  if (!wal_dir.empty() && wal::WalDirHasSegments(wal_dir)) {
    // Surviving WAL segments replay on top of the newest snapshot; it must
    // outlive them even at keep=0.
    effective_keep = std::max<size_t>(effective_keep, 1);
  }
  std::vector<int64_t> kept_ticks;
  for (const auto& [tick, path] : manifests) {
    if (kept_ticks.size() >= effective_keep) break;
    if (LoadShardedCheckpoint(path).ok()) kept_ticks.push_back(tick);
  }
  Status first_error = Status::OK();
  for (const auto& [tick, path] : members) {
    const bool kept = std::find(kept_ticks.begin(), kept_ticks.end(), tick) !=
                      kept_ticks.end();
    if (kept) continue;
    if (std::remove(path.c_str()) != 0 && first_error.ok()) {
      first_error = Status::IoError("cannot delete " + path);
    }
  }
  return first_error;
}

// ---------------------------------------------------------------------------
// Shape-independent (portable) checkpoint view
// ---------------------------------------------------------------------------

namespace {

/// Re-expresses a loaded fleet snapshot in the flat representation.
PortableCheckpoint FlattenShardedCheckpoint(ShardedCheckpoint cp) {
  PortableCheckpoint out;
  out.source_shards = cp.manifest.num_shards;
  out.data = std::move(cp.coord);
  // Global canonical stream: each shard window filtered to the edges it
  // owns under the snapshot's own map (mirrors dropped), merged back into
  // canonical order. Shard windows are canonically-sorted subsequences of
  // the global stream, so the sort reproduces that stream exactly — no
  // edge lost, none duplicated.
  const pipeline::PartitionMap map = cp.manifest.PartitionMapOf();
  size_t total = 0;
  for (const CheckpointData& sd : cp.shards) total += sd.edges.size();
  std::vector<graph::TimedEdge> global;
  global.reserve(total);
  for (size_t k = 0; k < cp.shards.size(); ++k) {
    for (const graph::TimedEdge& e : cp.shards[k].edges) {
      if (map.PartOf(e.src) == static_cast<int>(k)) global.push_back(e);
    }
  }
  std::sort(global.begin(), global.end(), graph::CanonicalEdgeLess);
  out.data.edges = std::move(global);
  // Warm state: the coordinator stores entity→anchor pairs (prev_l2g =
  // sorted entities, prev_labels = each entity's anchor entity). The flat
  // encoding wants prev_labels to be an *index* into prev_l2g whose entry
  // is the anchor. Both encodings induce the same anchor function through
  // MapWarmLabels, so warm continuity survives the conversion.
  if (out.data.have_prev) {
    const std::vector<graph::VertexId>& ents = out.data.prev_l2g;
    for (graph::Label& lab : out.data.prev_labels) {
      const auto anchor = static_cast<graph::VertexId>(lab);
      const auto it = std::lower_bound(ents.begin(), ents.end(), anchor);
      lab = (it != ents.end() && *it == anchor)
                ? static_cast<graph::Label>(it - ents.begin())
                : graph::kInvalidLabel;
    }
  }
  if (cp.manifest.epoch > out.data.wal_epoch) {
    out.data.wal_epoch = cp.manifest.epoch;
  }
  return out;
}

}  // namespace

Result<PortableCheckpoint> LoadPortableCheckpoint(
    const std::string& path_or_dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path_or_dir, ec)) {
    // Explicit file: ".smf" names a sharded manifest, anything else a
    // flat checkpoint file.
    if (path_or_dir.size() > 4 &&
        path_or_dir.substr(path_or_dir.size() - 4) == ".smf") {
      ShardedCheckpoint cp;
      GLP_ASSIGN_OR_RETURN(cp, LoadShardedCheckpoint(path_or_dir));
      return FlattenShardedCheckpoint(std::move(cp));
    }
    PortableCheckpoint out;
    GLP_ASSIGN_OR_RETURN(out.data, LoadCheckpoint(path_or_dir));
    return out;
  }
  // Directory: both formats can coexist after a resize history that passed
  // through one shard; the loadable snapshot with the highest tick wins.
  auto sharded = LatestShardedCheckpoint(path_or_dir);
  auto flat_path = LatestCheckpoint(path_or_dir);
  Result<CheckpointData> flat =
      flat_path.ok() ? LoadCheckpoint(flat_path.value())
                     : Result<CheckpointData>(flat_path.status());
  if (sharded.ok() &&
      (!flat.ok() || sharded.value().manifest.tick >= flat.value().tick)) {
    return FlattenShardedCheckpoint(std::move(sharded).value());
  }
  if (flat.ok()) {
    PortableCheckpoint out;
    out.data = std::move(flat).value();
    return out;
  }
  return Status::NotFound("no loadable checkpoint (flat or sharded) in " +
                          path_or_dir);
}

}  // namespace glp::serve
