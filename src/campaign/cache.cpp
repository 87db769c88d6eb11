#include "campaign/cache.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace cfm::campaign {

namespace fs = std::filesystem;
using sim::Json;

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::path_for(const PointSpec& point) const {
  return (fs::path(dir_) / (point.cache_key() + ".json")).string();
}

std::optional<sim::Json> ResultCache::load(const PointSpec& point) const {
  if (!enabled()) return std::nullopt;
  std::ifstream is(path_for(point));
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  Json entry;
  try {
    entry = Json::parse(buf.str());
  } catch (const sim::JsonParseError&) {
    return std::nullopt;  // truncated / corrupt entry: clean miss
  }
  if (!entry.is_object() || !entry.contains("key") ||
      !entry.contains("result")) {
    return std::nullopt;
  }
  // Guard against hash collisions and stale schemas: the stored spec
  // must match the requesting point exactly, not just its hash.
  if (!(entry.at("key") == point.canonical())) return std::nullopt;
  // Counters the aggregate would reject (negative, fractional) mark the
  // entry corrupt as well: the point runs again.
  const auto& result = entry.at("result");
  if (result.is_object() && result.contains("counters")) {
    try {
      for (const auto& [name, value] : result.at("counters").as_object()) {
        (void)sim::exact_u64(value, "counter ", name);
      }
    } catch (const std::logic_error&) {
      return std::nullopt;
    }
  }
  return result;
}

void ResultCache::store(const PointSpec& point, const sim::Json& result) const {
  if (!enabled()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("campaign cache: cannot create '" + dir_ +
                             "': " + ec.message());
  }
  Json entry = Json::object();
  entry["key"] = point.canonical();
  entry["result"] = result;
  const std::string path = path_for(point);
  // Per-process AND per-thread temp name: duplicate grid points may store
  // concurrently from different pool workers, and two *campaign
  // processes* sharing a cache directory (sharded sweeps) can collide on
  // identical thread-id hashes — each writer needs its own temp file so
  // the rename is the only point of contention (last writer wins, both
  // entries identical by construction).
#ifdef _WIN32
  const auto pid = static_cast<long long>(_getpid());
#else
  const auto pid = static_cast<long long>(::getpid());
#endif
  const std::string tmp =
      path + ".tmp." + std::to_string(pid) + "." +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      throw std::runtime_error("campaign cache: cannot write '" + tmp + "'");
    }
    entry.dump_to(os, 2);
    os << '\n';
    if (!os.flush()) {
      throw std::runtime_error("campaign cache: short write to '" + tmp + "'");
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    // Never strand the temp file: a failed publish (cross-device cache
    // dir, entry path occupied by a directory) must fail loudly AND
    // leave the cache litter-free, or every retry leaks a .tmp.
    const std::string message = ec.message();
    fs::remove(tmp, ec);
    throw std::runtime_error("campaign cache: cannot publish '" + path +
                             "': " + message);
  }
}

}  // namespace cfm::campaign
