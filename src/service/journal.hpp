// SessionJournal: the durable, append-only record of one solve session.
//
// One file per session — `<journal_dir>/session-<id>.jnl` — holding the
// base instance's canonical text followed by the lineage's delta texts
// (the PR 8 wire grammar, docs/SESSIONS.md), each framed by a header
// line carrying sizes and FNV-1a hashes:
//
//   cordon-journal v1 <session-id> <kind>
//   base <nbytes> <fnv64hex>
//   <nbytes of canonical instance text>
//   delta <version> <nbytes> <fnv64hex> <chain64hex>
//   <nbytes of delta text (engine::to_string grammar)>
//   ...
//
// Every record is written and flushed under the session's mutex before
// the append's future resolves, so an acknowledged append is always on
// disk.  `chain` is the session's running lineage hash AFTER the delta
// applied; replay verifies it, so a journal cannot silently splice one
// lineage onto another.
//
// Recovery contract (CordonService::recover): load() parses records
// until EOF or the first damaged frame; a damaged or half-written tail
// — the expected state after a crash mid-write — is DROPPED (the file
// is truncated back to the last whole record) and everything before it
// is replayed.  Re-solving the base and re-applying the deltas through
// the normal append path reproduces the uninterrupted lineage
// bit-identically, because the solvers are deterministic.
//
// Failure semantics on the write path: an I/O error (or an injected
// fault::Site::kJournalIo) throws core::SolveError{kInternal}; the
// owning session is then POISONED by the service — its in-memory state
// is one step ahead of the durable state, so further appends must fail
// rather than widen the divergence.  Durability falls back to the last
// flushed record.  A failed re-open in recovery poisons the same way.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cordon::service {

class SessionJournal {
 public:
  ~SessionJournal();
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Creates `<dir>/session-<id>.jnl` (refusing to overwrite an
  /// existing file), writes and flushes the header + base record.
  /// Throws core::SolveError{kInternal} on any I/O failure, removing
  /// the partial file.
  static std::unique_ptr<SessionJournal> create(const std::string& dir,
                                                std::uint64_t id,
                                                const std::string& kind,
                                                std::string_view base_text);

  /// Re-binds an existing journal for appending (recovery path).  The
  /// file must already be well-formed up to its current size.  Throws
  /// core::SolveError{kInternal} when the file cannot be opened.
  static std::unique_ptr<SessionJournal> open_existing(std::string path);

  /// Appends and flushes one delta record.  Throws
  /// core::SolveError{kInternal} on I/O failure (or injected fault); the
  /// caller must poison the owning session (see header comment).
  void append_delta(std::string_view delta_text, std::uint64_t version,
                    std::uint64_t chain_hash);

  /// Closes and unlinks the file — a cleanly closed session needs no
  /// recovery.  The object is unusable afterwards.
  void remove();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  // --- replay -------------------------------------------------------------

  struct ReplayDelta {
    std::uint64_t version = 0;     // session version AFTER this delta
    std::uint64_t chain_hash = 0;  // lineage hash AFTER this delta
    std::string text;              // delta wire text
  };

  struct Replay {
    std::uint64_t id = 0;
    std::string kind;
    std::string base_text;  // canonical instance text
    std::vector<ReplayDelta> deltas;
    std::uint64_t valid_bytes = 0;  // end offset of the last whole record
    bool truncated_tail = false;    // damage found (and to be dropped)
  };

  /// Parses a journal file.  Returns nullopt (with `error` set) when
  /// even the header/base record is unusable; otherwise returns every
  /// whole record, flagging a damaged tail via `truncated_tail`.
  static std::optional<Replay> load(const std::string& path,
                                    std::string* error);

  /// Truncates `path` to `size` bytes (drops a damaged tail before
  /// re-binding).  Returns false on failure.
  static bool truncate_file(const std::string& path, std::uint64_t size);

 private:
  SessionJournal(std::string path, std::FILE* f)
      : path_(std::move(path)), file_(f) {}

  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace cordon::service
