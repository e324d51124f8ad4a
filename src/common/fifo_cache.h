/**
 * @file
 * Bounded first-in-first-out cache.
 *
 * Every receive-side dedup cache in the cloud (server responses, AS
 * reports, pCA issuances, controller relays) and the AS certificate
 * verification cache share one shape: insert a key once, keep the
 * first value, evict the oldest entry once the bound is exceeded, and
 * walk the entries in insertion order when a snapshot is written.
 * Eviction order is a function of insertion order alone, so a cache
 * rebuilt by replaying the same inserts evicts identically.
 */

#ifndef MONATT_COMMON_FIFO_CACHE_H
#define MONATT_COMMON_FIFO_CACHE_H

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

namespace monatt
{

/** Map with a size bound and FIFO eviction. */
template <typename K, typename V>
class FifoCache
{
    using Map = std::map<K, V>;
    using Order = std::deque<typename Map::const_iterator>;

  public:
    /** `capacity` entries at most; 0 keeps nothing. */
    explicit FifoCache(std::size_t capacity) : cap(capacity) {}

    /**
     * Insert `key` unless it is already cached (the first value wins
     * and keeps its place in the order), then evict the oldest entries
     * beyond the bound. @return true when `key` was absent.
     */
    bool
    insert(const K &key, V value)
    {
        const auto [it, inserted] = entries.emplace(key, std::move(value));
        if (!inserted)
            return false;
        order.push_back(it);
        while (order.size() > cap) {
            entries.erase(order.front());
            order.pop_front();
        }
        return true;
    }

    /** Cached value for `key`; nullptr on a miss. Updating it in
     * place keeps the entry's position in the order. */
    const V *
    find(const K &key) const
    {
        const auto it = entries.find(key);
        return it == entries.end() ? nullptr : &it->second;
    }
    V *
    find(const K &key)
    {
        const auto it = entries.find(key);
        return it == entries.end() ? nullptr : &it->second;
    }

    bool contains(const K &key) const { return entries.count(key) != 0; }

    void
    clear()
    {
        order.clear();
        entries.clear();
    }

    std::size_t size() const { return order.size(); }
    std::size_t capacity() const { return cap; }

    /** Call fn(key, value) for every entry, oldest first. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const auto &it : order)
            fn(it->first, it->second);
    }

  private:
    std::size_t cap;
    Map entries;
    Order order; //!< Insertion order; entries.size() == order.size().
};

} // namespace monatt

#endif // MONATT_COMMON_FIFO_CACHE_H
