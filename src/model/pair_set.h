#ifndef PROGRES_MODEL_PAIR_SET_H_
#define PROGRES_MODEL_PAIR_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/entity.h"

namespace progres {

// Set of PairKeys in one flat open-addressing table: a power-of-two slot
// array probed linearly, kept at most half full, doubled when an insert
// would pass that load. There is no heap node per key, so a set of n pairs
// is one allocation of 16n-32n bytes and frees in one call, where a node set
// pays one allocation (and one free) per pair.
//
// Every 64-bit key can be stored. Slot value 0 marks an empty slot, so the
// key 0 (MakePairKey(0, 0)) lives in a flag beside the table. Copies are
// independent (checkpoint snapshots copy the sets they hold).
class PairSet {
 public:
  // Inserts `key`; returns false when it was already present.
  bool insert(PairKey key) {
    if (key == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      ++size_;
      return true;
    }
    if (2 * (size_ + 1) > slots_.size()) Grow(2 * (size_ + 1));
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

  bool contains(PairKey key) const {
    if (key == 0) return has_zero_;
    if (slots_.empty()) return false;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == 0) return false;
    }
  }

  size_t size() const { return size_; }

  // Sizes the table so `n` keys fit without growing.
  void reserve(size_t n) {
    if (2 * n > slots_.size()) Grow(2 * n);
  }

  // Calls fn(key) once per key, in slot order (unspecified but fixed for a
  // given sequence of inserts).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(PairKey{0});
    for (const PairKey key : slots_) {
      if (key != 0) fn(key);
    }
  }

 private:
  // Home slot of `key`: the murmur3 64-bit finalizer, so keys sharing their
  // high or low 32 bits (pairs with a common entity) spread over the table.
  size_t Home(PairKey key) const {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<size_t>(key) & mask_;
  }

  // Rehashes into the smallest power-of-two table (at least 16 slots) that
  // holds `min_slots`.
  void Grow(size_t min_slots) {
    size_t capacity = 16;
    while (capacity < min_slots) capacity *= 2;
    std::vector<PairKey> old(capacity, 0);
    old.swap(slots_);
    mask_ = capacity - 1;
    for (const PairKey key : old) {
      if (key == 0) continue;
      size_t i = Home(key);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<PairKey> slots_;  // 0 = empty; size 0 or a power of two
  size_t mask_ = 0;             // slots_.size() - 1 once allocated
  size_t size_ = 0;             // keys held, the flagged key 0 included
  bool has_zero_ = false;
};

}  // namespace progres

#endif  // PROGRES_MODEL_PAIR_SET_H_
