// Content-addressed result cache for campaign grid points.
//
// Every executed point appends one record to this cache's pack,
// `<dir>/<pid>-<nonce>.pack`, a file the cache creates on its first store
// and only ever appends to.  A record is one line:
//
//   <cache_key> {"key":<canonical spec>,"result":<result>}\n
//
// where cache_key is the FNV-1a hash of the point's canonical spec (which
// embeds the cfm-point/v1 schema version) and the document is the compact
// (canonical) Json dump.  Storing a point therefore costs one write(), not
// a file creation.  Re-running a campaign re-executes only changed or new
// points, and an interrupted campaign resumes from whatever the previous
// run managed to append.
//
// Lookups go through an in-memory index from key to (pack, offset,
// length).  A refresh lists `<dir>` for `*.pack` files and indexes the
// bytes each pack gained since the last refresh, so records another cache
// (worker process, earlier run) appended become visible; a line without
// its `\n` (a torn tail of a writer killed mid-append) is not indexed
// until it is complete.  The first lookup refreshes; later misses do not,
// so a pass over a grid lists the directory once however many points miss,
// and a caller that waits on other writers calls refresh() once per round.
// Only this cache's own pack and the pack it last read a hit from stay
// open.  A hit reads its record back with pread and verifies it: the
// stored spec must be byte-equal to the requesting point's canonical spec
// and every counter must be an exact u64.  A hash collision, a stale
// schema, or a corrupt record all read as a miss; when a key has several
// records the first one that verifies wins.  Files in
// the old one-file-per-point layout (`<key>.json`) are never read, so such
// a directory reads as all misses.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "campaign/scenario.hpp"
#include "sim/report.hpp"

namespace cfm::campaign {

class ResultCache {
 public:
  /// `dir` empty disables the cache (every lookup misses, stores are
  /// dropped).  The directory and the pack are created lazily on the
  /// first store.
  explicit ResultCache(std::string dir);
  ~ResultCache();

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Cached result for the point, or nullopt on miss, corrupt record, or
  /// spec mismatch.
  [[nodiscard]] std::optional<sim::Json> load(const PointSpec& point) const;

  /// True when a valid, spec-matching record exists — the same
  /// verification as load() (a torn or stale record reads as absent), so
  /// lease-holding workers and the polling coordinator never mistake
  /// debris for a completed point.  Lease/failure files live under
  /// `<dir>/leases/` and never collide with packs.
  [[nodiscard]] bool contains(const PointSpec& point) const {
    return load(point).has_value();
  }

  /// Indexes the records appended to the directory's packs since the
  /// last refresh.  load() refreshes by itself only before its first
  /// lookup.
  void refresh() const;

  /// Appends the result to this cache's pack.  Safe to call from several
  /// threads.  Throws std::runtime_error naming the path when the record
  /// cannot be written — losing cache writes silently would turn "resume"
  /// into "silently re-run everything".
  void store(const PointSpec& point, const sim::Json& result) const;

 private:
  struct State;  ///< packs, index and descriptors, behind one mutex

  std::string dir_;
  std::unique_ptr<State> state_;
};

}  // namespace cfm::campaign
