// Sorted flat map for the small, lookup-heavy tables on the per-message path
// (reactive route tables, soft-state deadlines, duplicate sets). Entries live
// in one contiguous vector in ascending key order: a lookup is a binary
// search over cache-dense storage and an insert or erase shifts the tail, so
// steady-state refreshes allocate nothing where a node-based std::map pays
// one allocation per entry and a pointer chase per level.
//
// Ordering contract: iteration visits entries in ascending key order, exactly
// as std::map<K, V> would. Callers rely on it: it fixes RERR contents, state
// codec bytes, soft-state re-seeding order and every digest built from them.
//
// Any insert or erase invalidates iterators and references (vector rules).
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace mk {

template <class K, class V>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

  /// First entry whose key is not less than `key`.
  iterator lower_bound(const K& key) {
    return begin() + static_cast<std::ptrdiff_t>(lower_index(key));
  }
  const_iterator lower_bound(const K& key) const {
    return begin() + static_cast<std::ptrdiff_t>(lower_index(key));
  }

  iterator find(const K& key) {
    auto it = lower_bound(key);
    return it != end() && it->first == key ? it : end();
  }
  const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return it != end() && it->first == key ? it : end();
  }
  bool contains(const K& key) const { return find(key) != end(); }

  /// Inserts (key, V(args...)) unless `key` is present; the bool says
  /// whether it inserted.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != end() && it->first == key) return {it, false};
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  /// Erases one entry; returns the entry after it.
  iterator erase(const_iterator pos) { return items_.erase(pos); }
  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }
  /// Erases every entry matching `pred` in one pass; returns how many.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(items_, pred);
  }

 private:
  std::size_t lower_index(const K& key) const {
    const value_type* first = items_.data();
    std::size_t len = items_.size();
    while (len > 0) {
      const std::size_t half = len / 2;
      if (first[half].first < key) {
        first += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    return static_cast<std::size_t>(first - items_.data());
  }

  std::vector<value_type> items_;
};

}  // namespace mk
