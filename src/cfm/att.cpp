#include "cfm/att.hpp"

#include <algorithm>
#include <iterator>

namespace cfm::core {

void Att::insert(sim::Cycle now, sim::BlockAddr offset, OpKind kind,
                 std::uint64_t op_id, sim::ProcessorId proc) {
  prune(now);
  // Batched tours (CfmMemory::tick_span) insert out of slot order; keep
  // the entries sorted by insertion slot so find()'s young-to-old scan
  // and prune()'s expired-prefix cut stay valid.  In slot order this is
  // a push_back.
  auto pos = entries_.end();
  while (pos != entries_.begin() && std::prev(pos)->inserted > now) --pos;
  entries_.insert(pos, Entry{now, offset, kind, op_id, proc});
}

std::optional<Att::Hit> Att::find(sim::Cycle now, sim::BlockAddr offset,
                                  std::uint32_t pos_lo, std::uint32_t pos_hi,
                                  KindMask mask, std::uint64_t self_id) const {
  // Youngest entries are at the back; scan young -> old so the returned
  // hit is the most recently issued competitor in range.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->inserted >= now) continue;  // inserted this slot: position -1
    const auto age = now - it->inserted;
    const auto pos = static_cast<std::uint32_t>(age - 1);
    if (pos >= capacity_) break;  // older entries have all expired
    if (pos < pos_lo) continue;
    if (pos >= pos_hi) break;     // entries only get older from here on
    if (it->offset != offset) continue;
    if ((mask & kind_bit(it->kind)) == 0) continue;
    if (it->op_id == self_id) continue;
    return Hit{it->kind, it->op_id, it->proc, pos};
  }
  return std::nullopt;
}

void Att::prune(sim::Cycle now) {
  // Entries are ordered by insertion time; drop the expired prefix.
  const auto first_live = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.inserted >= now || (now - e.inserted) <= capacity_;
      });
  entries_.erase(entries_.begin(), first_live);
}

std::size_t Att::live_entries(sim::Cycle now) const {
  std::size_t live = 0;
  for (const auto& e : entries_) {
    if (e.inserted >= now) continue;
    if (now - e.inserted - 1 < capacity_) ++live;
  }
  return live;
}

}  // namespace cfm::core
