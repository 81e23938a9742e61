// Items and itemsets.
//
// The paper evaluates at most five concurrent items; we support up to 16.
// An ItemSet is a bitmask, which makes the per-world bundle-utility table
// (2^m doubles) and the constrained adoption argmax of §3 exact and cheap.
#ifndef CWM_MODEL_ITEMS_H_
#define CWM_MODEL_ITEMS_H_

#include <bit>
#include <cstdint>

#include "support/check.h"

namespace cwm {

/// Item identifier: dense in [0, num_items).
using ItemId = int;

/// Bitmask of items; bit i set <=> item i in the set.
using ItemSet = uint16_t;

/// Maximum number of concurrent items supported by the bitmask encoding.
inline constexpr int kMaxItems = 16;

/// The empty itemset.
inline constexpr ItemSet kEmptyItemSet = 0;

/// Singleton set {i}.
inline ItemSet SingletonSet(ItemId i) {
  CWM_CHECK(i >= 0 && i < kMaxItems);
  return static_cast<ItemSet>(1u << i);
}

inline bool Contains(ItemSet s, ItemId i) {
  return (s >> i) & 1u;
}

inline ItemSet WithItem(ItemSet s, ItemId i) {
  return static_cast<ItemSet>(s | SingletonSet(i));
}

inline int SetSize(ItemSet s) { return std::popcount(s); }

/// Calls fn(ItemId) for every item in `s`, ascending.
template <typename Fn>
void ForEachItem(ItemSet s, Fn fn) {
  while (s != 0) {
    const int i = std::countr_zero(s);
    fn(static_cast<ItemId>(i));
    s = static_cast<ItemSet>(s & (s - 1));
  }
}

/// Calls fn(ItemSet) for every subset of `s`, including empty and s itself.
/// Standard submask-enumeration; visits 2^|s| sets.
template <typename Fn>
void ForEachSubset(ItemSet s, Fn fn) {
  ItemSet sub = s;
  for (;;) {
    fn(sub);
    if (sub == 0) break;
    sub = static_cast<ItemSet>((sub - 1) & s);
  }
}

}  // namespace cwm

#endif  // CWM_MODEL_ITEMS_H_
