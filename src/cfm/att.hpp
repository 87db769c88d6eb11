// Address Tracking Table (§4.1.2, Fig 4.2).
//
// One ATT per memory bank: an associative queue of (b-1) entries that
// shifts one position per time slot.  A block *write* (or swap-write /
// read-invalidate / write-back) inserts its address offset at the head of
// the ATT of the FIRST bank it touches; every later slot the entry ages by
// one position and it vanishes after b-1 slots.  Because every block
// operation tours all b banks at one bank per slot, the position of an
// entry encodes the issue-time relationship between the touring operation
// and the operation that left the entry:
//
//   position < progress-1   -> entry's op issued strictly LATER than me
//   position == progress-1  -> issued the SAME slot as me (tie: the op
//                              that reaches bank 0 first has priority)
//   position > progress-1   -> issued strictly EARLIER than me
//
// where `progress` is how many banks I have already updated.  The §4.1
// consistency rule (latest-issued write wins) compares the first
// `progress` entries (or `progress-1` once I have updated bank 0); the
// §4.2 atomic-operation rule (earliest wins) compares the mirror-image
// suffix.  The entry lifetime of b-1 slots is not an implementation
// convenience: it is exactly the window in which an abort is *safe*
// (the winner still overwrites everything the aborted op wrote).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hpp"

namespace cfm::core {

/// Block-operation kinds tracked by the ATT.  Plain data ops (Ch. 4) and
/// cache-protocol primitives (Ch. 5) share the machinery with different
/// detection masks.
enum class OpKind : std::uint8_t {
  Read = 0,
  Write,
  SwapRead,
  SwapWrite,
  ProtoRead,        ///< cache-protocol read
  ProtoReadInv,     ///< cache-protocol read-invalidate
  ProtoWriteBack,   ///< cache-protocol write-back
  Abandon,          ///< tombstone left where a write tour was abandoned
};

using KindMask = std::uint32_t;
[[nodiscard]] constexpr KindMask kind_bit(OpKind k) noexcept {
  return KindMask{1} << static_cast<std::uint8_t>(k);
}
inline constexpr KindMask kWriteLike =
    kind_bit(OpKind::Write) | kind_bit(OpKind::SwapWrite);
/// What a read must react to: live writes plus abandonment tombstones.
/// A write tour that restarts or aborts midway leaves an Abandon entry at
/// the bank where it stopped; a reader trailing the abandoned tour
/// restarts there, and the competitor that forced the abandonment covers
/// the orphaned prefix within the entry lifetime (see cfm_memory.cpp).
/// Writers do NOT detect tombstones — no writer ever yields to one.
inline constexpr KindMask kReadSensitive =
    kWriteLike | kind_bit(OpKind::Abandon);
inline constexpr KindMask kProtoExclusive =
    kind_bit(OpKind::ProtoReadInv) | kind_bit(OpKind::ProtoWriteBack);

class Att {
 public:
  /// `capacity` = b - 1 entries (paper: an (m-1) x a associative memory).
  explicit Att(std::uint32_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Inserts an entry at the head (position -1 this slot; position 0 next
  /// slot).  Called by an operation at its first bank.  Inserts may come
  /// out of slot order; the table stays ordered by insertion slot.
  void insert(sim::Cycle now, sim::BlockAddr offset, OpKind kind,
              std::uint64_t op_id, sim::ProcessorId proc);

  struct Hit {
    OpKind kind = OpKind::Write;
    std::uint64_t op_id = 0;
    sim::ProcessorId proc = 0;
    std::uint32_t position = 0;
  };

  /// Finds the youngest matching entry whose position at `now` lies in
  /// [pos_lo, pos_hi), whose kind is in `mask`, whose offset matches, and
  /// whose op id differs from `self_id` (an op never conflicts with its
  /// own entries).  Position of an entry inserted at slot s is
  /// (now - s - 1); entries with position >= capacity have expired.
  [[nodiscard]] std::optional<Hit> find(sim::Cycle now, sim::BlockAddr offset,
                                        std::uint32_t pos_lo, std::uint32_t pos_hi,
                                        KindMask mask, std::uint64_t self_id) const;

  /// Removes entries that have shifted off the end.  Called opportunistically.
  void prune(sim::Cycle now);

  [[nodiscard]] std::size_t live_entries(sim::Cycle now) const;

 private:
  struct Entry {
    sim::Cycle inserted = 0;
    sim::BlockAddr offset = 0;
    OpKind kind = OpKind::Write;
    std::uint64_t op_id = 0;
    sim::ProcessorId proc = 0;
  };

  std::uint32_t capacity_;
  std::vector<Entry> entries_;  // youngest last
};

}  // namespace cfm::core
