#include "campaign/cache.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#ifdef _WIN32
#include <io.h>
#include <process.h>
#include <sys/stat.h>
#else
#include <unistd.h>
#endif

namespace cfm::campaign {

namespace fs = std::filesystem;
using sim::Json;

namespace {

#ifdef _WIN32
long long this_pid() { return static_cast<long long>(_getpid()); }
int open_file(const std::string& path, int flags) {
  return ::_open(path.c_str(), flags | _O_BINARY | _O_NOINHERIT,
                 _S_IREAD | _S_IWRITE);
}
void close_file(int fd) { ::_close(fd); }
long long write_file(int fd, const std::string& bytes) {
  return ::_write(fd, bytes.data(), static_cast<unsigned>(bytes.size()));
}
long long read_at(int fd, char* buf, std::size_t n, std::uint64_t offset) {
  if (::_lseeki64(fd, static_cast<long long>(offset), SEEK_SET) < 0) return -1;
  return ::_read(fd, buf, static_cast<unsigned>(n));
}
bool truncate_file(int fd, std::uint64_t size) {
  return ::_chsize_s(fd, static_cast<long long>(size)) == 0;
}
#else
long long this_pid() { return static_cast<long long>(::getpid()); }
int open_file(const std::string& path, int flags) {
  return ::open(path.c_str(), flags | O_CLOEXEC, 0644);
}
void close_file(int fd) { ::close(fd); }
long long write_file(int fd, const std::string& bytes) {
  return ::write(fd, bytes.data(), bytes.size());
}
long long read_at(int fd, char* buf, std::size_t n, std::uint64_t offset) {
  return ::pread(fd, buf, n, static_cast<off_t>(offset));
}
bool truncate_file(int fd, std::uint64_t size) {
  return ::ftruncate(fd, static_cast<off_t>(size)) == 0;
}
#endif

/// Bytes of a pack read per call while indexing it.
constexpr std::size_t kReadChunk = std::size_t{1} << 14;

/// A record's document up to its result: the compact dump of
/// {"key": canonical, "result": ...} starts with exactly these bytes
/// (object keys dump sorted), so a record whose spec differs from the
/// point's by one byte fails the prefix comparison.
std::string record_prefix(const PointSpec& point) {
  return "{\"key\":" + point.canonical().dump() + ",\"result\":";
}

/// The result of a record's document, or nullopt when the document is not
/// `prefix` + a Json value + `}`, or carries a counter the aggregate would
/// reject (negative, fractional).
std::optional<Json> verified(std::string text, const std::string& prefix) {
  if (text.size() <= prefix.size() || text.back() != '}' ||
      text.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  text.pop_back();
  text.erase(0, prefix.size());
  Json result;
  try {
    result = Json::parse(text);
  } catch (const sim::JsonParseError&) {
    return std::nullopt;  // truncated / corrupt record: clean miss
  }
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

}  // namespace

struct ResultCache::State {
  struct Pack {
    std::string path;
    /// Bytes up to the end of the last complete line: everything before
    /// is indexed, everything after is a torn or growing tail.
    std::uint64_t indexed = 0;
  };
  struct Record {
    const Pack* pack = nullptr;
    std::uint64_t offset = 0;  ///< of the document, after "<key> "
    std::size_t length = 0;    ///< of the document, without the '\n'
  };

  std::mutex mutex;  // guards everything below
  std::map<std::string, Pack> packs;  ///< by file name; nodes never move
  std::unordered_map<std::string, std::vector<Record>> index;
  bool refreshed = false;
  Pack* own = nullptr;  ///< this cache's pack, opened by the first store
  int own_fd = -1;
  /// The one other pack held open for reading hits, which tend to come
  /// from one pack in a row.  Every other pack is opened only while it is
  /// indexed, so a directory of any number of packs costs this cache at
  /// most two descriptors.
  const Pack* reading = nullptr;
  int reading_fd = -1;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    if (own_fd >= 0) close_file(own_fd);
    if (reading_fd >= 0) close_file(reading_fd);
  }

  /// The document of `key`'s n-th record into `text`; false when the key
  /// has no n-th record.  The first call indexes the directory.  A record
  /// a damaged (or unopenable) pack cannot return whole reads as "".
  bool read(const std::string& dir, const std::string& key, std::size_t n,
            std::string& text) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!refreshed) refresh_locked(dir);
    const auto it = index.find(key);
    if (it == index.end() || n >= it->second.size()) return false;
    const Record& r = it->second[n];
    const int fd = fd_for(r.pack);
    text.resize(r.length);
    if (fd < 0 || read_at(fd, text.data(), r.length, r.offset) !=
                      static_cast<long long>(r.length)) {
      text.clear();
    }
    return true;
  }

  int fd_for(const Pack* pack) {
    if (pack == own) return own_fd;
    if (pack != reading) {
      if (reading_fd >= 0) close_file(reading_fd);
      reading_fd = open_file(pack->path, O_RDONLY);
      reading = reading_fd >= 0 ? pack : nullptr;
    }
    return reading_fd;
  }

  void refresh(const std::string& dir) {
    std::lock_guard<std::mutex> lock(mutex);
    refresh_locked(dir);
  }

  /// Indexes the complete lines every pack in `dir` gained since the last
  /// refresh.  A pack whose size has not grown is not opened.
  void refresh_locked(const std::string& dir) {
    refreshed = true;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const fs::path& path = it->path();
      if (path.extension() != ".pack") continue;
      Pack& pack = packs.try_emplace(path.filename().string(),
                                     Pack{path.string(), 0})
                       .first->second;
      if (&pack == own) continue;  // its records are indexed as appended
      std::error_code size_ec;
      const std::uint64_t size = it->file_size(size_ec);
      if (size_ec || size <= pack.indexed) continue;
      // A pack that cannot be opened now is tried again by the next
      // refresh.
      const int fd = open_file(pack.path, O_RDONLY);
      if (fd < 0) continue;
      index_tail(pack, fd);
      close_file(fd);
    }
  }

  void index_tail(Pack& pack, int fd) {
    std::string buf;  // the pack's bytes from pack.indexed on
    char chunk[kReadChunk] = {};
    for (long long got; (got = read_at(fd, chunk, sizeof chunk,
                                       pack.indexed + buf.size())) > 0;) {
      buf.append(chunk, static_cast<std::size_t>(got));
      std::size_t line = 0;
      for (std::size_t nl; (nl = buf.find('\n', line)) != std::string::npos;
           line = nl + 1) {
        const std::size_t space = buf.find(' ', line);
        if (space >= nl) continue;  // no key: damaged line
        index[buf.substr(line, space - line)].push_back(
            {&pack, pack.indexed + space + 1, nl - space - 1});
      }
      pack.indexed += line;
      buf.erase(0, line);
    }
  }

  /// Appends one record line for `key` to this cache's pack, creating
  /// the directory and the pack on first use.
  void append(const std::string& dir, const std::string& key,
              const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    if (own == nullptr) open_own(dir);
    const long long wrote = write_file(own_fd, line);
    if (wrote != static_cast<long long>(line.size())) {
      const std::string why =
          wrote < 0 ? std::strerror(errno) : "short write";
      const std::string path = own->path;
      // Cut the torn line off so it cannot swallow the next record; if
      // even that fails, later stores go to a fresh pack.
      if (!truncate_file(own_fd, own->indexed)) {
        close_file(own_fd);
        own_fd = -1;
        own = nullptr;
      }
      throw std::runtime_error("campaign cache: cannot append to '" + path +
                               "': " + why);
    }
    index[key].push_back(
        {own, own->indexed + key.size() + 1, line.size() - key.size() - 2});
    own->indexed += line.size();
  }

  void open_own(const std::string& dir) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      throw std::runtime_error("campaign cache: cannot create '" + dir +
                               "': " + ec.message());
    }
    // The pid keeps concurrent workers apart and the random nonce keeps
    // apart the caches of one process (and a reused pid, or another
    // host's process on a shared directory); O_EXCL settles any clash.
    std::random_device rng;
    for (;;) {
      char nonce[17] = {};
      std::snprintf(nonce, sizeof nonce, "%08x%08x", rng(), rng());
      std::string name =
          std::to_string(this_pid()) + "-" + nonce + ".pack";
      std::string path = (fs::path(dir) / name).string();
      const int fd = open_file(path, O_RDWR | O_CREAT | O_EXCL | O_APPEND);
      if (fd >= 0) {
        own = &packs.try_emplace(std::move(name), Pack{std::move(path), 0})
                   .first->second;
        own_fd = fd;
        return;
      }
      if (errno != EEXIST) {
        throw std::runtime_error("campaign cache: cannot create '" + path +
                                 "': " + std::strerror(errno));
      }
    }
  }
};

ResultCache::ResultCache(std::string dir)
    : dir_(std::move(dir)), state_(std::make_unique<State>()) {}

ResultCache::~ResultCache() = default;

std::optional<sim::Json> ResultCache::load(const PointSpec& point) const {
  if (!enabled()) return std::nullopt;
  const std::string key = point.cache_key();
  const std::string prefix = record_prefix(point);
  for (std::size_t n = 0;; ++n) {
    std::string text;
    if (!state_->read(dir_, key, n, text)) return std::nullopt;
    if (auto result = verified(std::move(text), prefix)) return result;
  }
}

void ResultCache::refresh() const {
  if (enabled()) state_->refresh(dir_);
}

void ResultCache::store(const PointSpec& point, const sim::Json& result) const {
  if (!enabled()) return;
  const std::string key = point.cache_key();
  state_->append(dir_, key,
                 key + ' ' + record_prefix(point) + result.dump() + "}\n");
}

}  // namespace cfm::campaign
