// A map kept as one vector sorted by key: contiguous storage, iteration in
// ascending key order (like std::map), O(log n) lookup, O(n) insert and
// erase.  Suits a hot lookup-and-iterate table whose inserts mostly land
// at the end (ascending ids).  Unlike std::map, insert and erase
// invalidate references and iterators into the table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nfv {

template <typename Key, typename Value>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = Value;
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  void clear() { items_.clear(); }

  [[nodiscard]] iterator find(const Key& key) {
    const auto it = lower(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    return const_cast<FlatMap&>(*this).find(key);
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return find(key) != end() ? 1 : 0;
  }
  [[nodiscard]] Value& at(const Key& key) {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }

  /// Inserts (key, value) unless `key` is present; returns the entry and
  /// whether it was inserted, like std::map::emplace.
  std::pair<iterator, bool> emplace(const Key& key, Value value) {
    const auto it = lower(key);
    if (it != items_.end() && it->first == key) return {it, false};
    return {items_.emplace(it, key, std::move(value)), true};
  }

  iterator erase(const_iterator it) { return items_.erase(it); }
  std::size_t erase(const Key& key) {
    const auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

 private:
  [[nodiscard]] iterator lower(const Key& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const Key& k) { return item.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace nfv
