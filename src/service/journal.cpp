#include "src/service/journal.hpp"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/core/cancel.hpp"
#include "src/core/fault.hpp"
#include "src/engine/instance.hpp"

namespace cordon::service {

namespace {

constexpr std::string_view kMagic = "cordon-journal";
constexpr std::string_view kVersion = "v1";

[[noreturn]] void io_fail(const std::string& path, const char* op) {
  throw core::SolveError(core::SolveErrorCode::kInternal,
                         std::string("session journal ") + op + " failed: " +
                             path + ": " + std::strerror(errno));
}

void write_all(std::FILE* f, const std::string& path, std::string_view bytes,
               const char* op) {
  // Chaos: a journal write that "fails" must look exactly like a real
  // one — nothing of the record is considered durable.
  if (CORDON_FAULT_CHECK(core::fault::Site::kJournalIo)) {
    errno = EIO;
    io_fail(path, op);
  }
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size())
    io_fail(path, op);
}

void flush(std::FILE* f, const std::string& path, const char* op) {
  if (std::fflush(f) != 0) io_fail(path, op);
}

std::string frame_header(std::string_view keyword, std::uint64_t a,
                         std::string_view payload, std::uint64_t chain,
                         bool with_chain) {
  char buf[160];
  if (with_chain) {
    std::snprintf(buf, sizeof buf,
                  "%.*s %" PRIu64 " %zu %016" PRIx64 " %016" PRIx64 "\n",
                  static_cast<int>(keyword.size()), keyword.data(), a,
                  payload.size(), engine::fnv1a64(payload), chain);
  } else {
    std::snprintf(buf, sizeof buf, "%.*s %zu %016" PRIx64 "\n",
                  static_cast<int>(keyword.size()), keyword.data(),
                  payload.size(), engine::fnv1a64(payload));
  }
  return buf;
}

}  // namespace

SessionJournal::~SessionJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<SessionJournal> SessionJournal::create(
    const std::string& dir, std::uint64_t id, const std::string& kind,
    std::string_view base_text) {
  std::string path =
      dir + "/session-" + std::to_string(id) + ".jnl";
  // "x": exclusive create — a leftover journal for this id means a
  // recovery/creation race or id reuse; refuse rather than clobber.
  std::FILE* f = std::fopen(path.c_str(), "wbx");
  if (f == nullptr) io_fail(path, "create");
  std::unique_ptr<SessionJournal> j(new SessionJournal(std::move(path), f));
  try {
    char head[128];
    std::snprintf(head, sizeof head, "%.*s %.*s %" PRIu64 " %s\n",
                  static_cast<int>(kMagic.size()), kMagic.data(),
                  static_cast<int>(kVersion.size()), kVersion.data(), id,
                  kind.c_str());
    write_all(f, j->path_, head, "header write");
    write_all(f, j->path_, frame_header("base", 0, base_text, 0, false),
              "base write");
    write_all(f, j->path_, base_text, "base write");
    write_all(f, j->path_, "\n", "base write");
    flush(f, j->path_, "base flush");
  } catch (...) {
    // Leave no unusable file behind: creation either yields a journal
    // whose base record is durable, or nothing.
    std::remove(j->path_.c_str());
    throw;
  }
  return j;
}

std::unique_ptr<SessionJournal> SessionJournal::open_existing(
    std::string path) {
  if (CORDON_FAULT_CHECK(core::fault::Site::kJournalIo)) {
    errno = EIO;
    io_fail(path, "open");
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) io_fail(path, "open");
  return std::unique_ptr<SessionJournal>(
      new SessionJournal(std::move(path), f));
}

void SessionJournal::append_delta(std::string_view delta_text,
                                  std::uint64_t version,
                                  std::uint64_t chain_hash) {
  write_all(file_, path_, frame_header("delta", version, delta_text,
                                       chain_hash, true),
            "delta write");
  write_all(file_, path_, delta_text, "delta write");
  write_all(file_, path_, "\n", "delta write");
  flush(file_, path_, "delta flush");
}

void SessionJournal::remove() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(path_.c_str());
}

std::optional<SessionJournal::Replay> SessionJournal::load(
    const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = path + ": " + msg;
  };

  std::string line;
  if (!std::getline(in, line)) {
    set_error("empty journal");
    return std::nullopt;
  }
  Replay out;
  {
    std::istringstream head(line);
    std::string magic, version, kind;
    std::uint64_t id = 0;
    if (!(head >> magic >> version >> id >> kind) || magic != kMagic ||
        version != kVersion) {
      set_error("bad journal header '" + line + "'");
      return std::nullopt;
    }
    out.id = id;
    out.kind = std::move(kind);
  }

  // Reads one framed payload of `n` bytes plus its separator; false on
  // a short read (damaged tail).
  auto read_payload = [&](std::uint64_t n, std::string& dst) {
    dst.resize(n);
    if (n != 0 && !in.read(dst.data(), static_cast<std::streamsize>(n)))
      return false;
    char sep = '\0';
    return in.get(sep) && sep == '\n';
  };
  auto parse_hex = [](const std::string& s, std::uint64_t& v) {
    char* end = nullptr;
    v = std::strtoull(s.c_str(), &end, 16);
    return end != nullptr && *end == '\0' && !s.empty();
  };

  // Base record.
  if (!std::getline(in, line)) {
    set_error("journal ends before base record");
    return std::nullopt;
  }
  {
    std::istringstream head(line);
    std::string keyword, fnv_hex;
    std::uint64_t nbytes = 0, fnv = 0;
    if (!(head >> keyword >> nbytes >> fnv_hex) || keyword != "base" ||
        !parse_hex(fnv_hex, fnv) || !read_payload(nbytes, out.base_text) ||
        engine::fnv1a64(out.base_text) != fnv) {
      set_error("damaged base record");
      return std::nullopt;
    }
  }
  out.valid_bytes = static_cast<std::uint64_t>(in.tellg());

  // Delta records until EOF or first damage.
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // tolerate a stray trailing newline
    std::istringstream head(line);
    std::string keyword, fnv_hex, chain_hex;
    std::uint64_t version = 0, nbytes = 0, fnv = 0, chain = 0;
    ReplayDelta d;
    if (!(head >> keyword >> version >> nbytes >> fnv_hex >> chain_hex) ||
        keyword != "delta" || !parse_hex(fnv_hex, fnv) ||
        !parse_hex(chain_hex, chain) || !read_payload(nbytes, d.text) ||
        engine::fnv1a64(d.text) != fnv) {
      out.truncated_tail = true;  // crash mid-write: drop the tail
      break;
    }
    d.version = version;
    d.chain_hash = chain;
    out.deltas.push_back(std::move(d));
    out.valid_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  return out;
}

bool SessionJournal::truncate_file(const std::string& path,
                                   std::uint64_t size) {
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

}  // namespace cordon::service
